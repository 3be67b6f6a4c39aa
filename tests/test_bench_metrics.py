"""The benchmark suite's metric writer merges into existing files."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

BENCH_CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


def _load_bench_conftest():
    spec = importlib.util.spec_from_file_location("bench_conftest", BENCH_CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_partial_runs_keep_each_others_keys(tmp_path):
    write = _load_bench_conftest().write_bench_metrics
    write({"alpha": 1.0, "cache/hits": 3}, tmp_path)
    write({"beta": 2.0, "alpha": 1.5}, tmp_path)
    serving = json.loads((tmp_path / "BENCH_serving.json").read_text())
    assert serving == {"alpha": 1.5, "beta": 2.0}
    assert json.loads((tmp_path / "BENCH_cache.json").read_text()) == {"hits": 3}
