"""Regression gate: compare two results files written by ``run.py --out``.

    python3 e2ebench/compare.py BASE.json NEW.json

For every workload and end-to-end metric of ``BENCHMARK.json`` it
prints the two medians and one verdict:

* ``ok`` — NEW is no worse than BASE by more than the metric's bound;
* ``regressed`` — NEW is worse than BASE by more than the bound;
* ``unresolved`` — the run-to-run spread of either side (the distance
  between its quartiles, as a share of its median) is wider than the
  bound, so the runs cannot tell; unless every NEW run reads better
  than every BASE run, which is ``ok``.

A rise in the share of failed operations, or a NEW run whose outputs
failed their checks, is ``regressed`` too. The exit code is 1 when
anything regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spec  # noqa: E402  (after the path insert)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(base: List[float], new: List[float], better: str, bound: float) -> str:
    all_better = (
        max(new) < min(base) if better == "lower" else min(new) > max(base)
    )
    if max(spread(base), spread(new)) > bound and not all_better:
        return "unresolved"
    if worsening(statistics.median(base), statistics.median(new), better) > bound:
        return "regressed"
    return "ok"


def failed_share(summary: Dict) -> float:
    return summary["failed"] / summary["attempted"] if summary["attempted"] else 0.0


def compare(base: Dict, new: Dict, declared: Dict) -> List[Tuple[str, ...]]:
    """One ``(workload, metric, base, new, change, bound, status)`` row each."""
    rows = []
    for workload in sorted(set(base["summary"]) & set(new["summary"])):
        before, after = base["summary"][workload], new["summary"][workload]
        for metric in declared["end_to_end"]:
            name = metric["name"]
            if name not in before["metrics"] or name not in after["metrics"]:
                continue
            old = before["metrics"][name]["values"]
            fresh = after["metrics"][name]["values"]
            change = worsening(
                statistics.median(old), statistics.median(fresh), metric["better"]
            )
            rows.append((
                workload, name,
                f"{statistics.median(old):.4g}", f"{statistics.median(fresh):.4g}",
                f"{change:+.1%}", f"{metric['bound']:.0%}",
                verdict(old, fresh, metric["better"], metric["bound"]),
            ))
        share_old, share_new = failed_share(before), failed_share(after)
        rows.append((
            workload, "failed_share", f"{share_old:.4g}", f"{share_new:.4g}",
            f"{share_new - share_old:+.4g}", "0",
            "regressed" if share_new > share_old else "ok",
        ))
        rows.append((
            workload, "correct", str(before["correct"]), str(after["correct"]),
            "", "", "ok" if after["correct"] else "regressed",
        ))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text(encoding="utf-8"))
    new = json.loads(args.new.read_text(encoding="utf-8"))
    rows = compare(base, new, spec.load())
    header = ("workload", "metric", "base", "new", "worse by", "bound", "status")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
