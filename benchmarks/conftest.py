"""Shared benchmark fixtures and report-printing helpers."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).parent

#: metrics without an explicit ``group/`` prefix land here (the fixture
#: predates per-group routing and the serving benchmarks use bare keys)
DEFAULT_GROUP = "serving"


def print_report(title: str, lines: list[str]) -> None:
    """Print one experiment's reproduction rows, clearly delimited."""
    bar = "=" * 74
    print(f"\n{bar}\n{title}\n{bar}")
    for line in lines:
        print(line)
    print(bar)


@pytest.fixture(scope="session")
def report_printer():
    return print_report


def write_bench_metrics(metrics: dict, bench_dir: Path = BENCH_DIR) -> None:
    """Merge ``{metric: value}`` entries into per-group JSON files.

    A key of the form ``"analysis/vet_precision"`` routes to
    ``BENCH_analysis.json`` under the bare metric name; keys without a
    slash land in ``BENCH_serving.json``. Keys already in a file and
    not in ``metrics`` are kept, so a partial run (one file, one ``-k``)
    updates its own figures without dropping the rest.
    """
    groups: dict = {}
    for key, value in metrics.items():
        group, _, name = key.rpartition("/")
        groups.setdefault(group or DEFAULT_GROUP, {})[name] = value
    for group, values in groups.items():
        path = bench_dir / f"BENCH_{group}.json"
        merged = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        merged.update(values)
        path.write_text(
            json.dumps(merged, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


@pytest.fixture(scope="session")
def bench_metrics():
    """Session-wide dict of machine-readable benchmark metrics.

    Benchmarks drop ``{metric: value}`` entries in; at session teardown
    :func:`write_bench_metrics` merges them into the per-group
    ``benchmarks/BENCH_<group>.json`` files so CI and the acceptance
    criteria can read numbers instead of scraping stdout. (Benchmarks
    are exempt from the atomic-write lint rule.)
    """
    metrics: dict = {}
    yield metrics
    write_bench_metrics(metrics)
