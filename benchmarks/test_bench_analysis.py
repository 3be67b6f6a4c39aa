"""ANALYSIS — Static analysis throughput, precision, and suppression budget.

CodexDB executes model-generated Python and text-to-SQL executes
model-generated SQL; both now pass every candidate through static
vetting first. The pitch only holds if the analyzers are much cheaper
than the execution they guard — this benchmark measures programs
vetted per second (flow-sensitive pycheck over generated plans) and
queries checked per second (sqlcheck against the catalog), next to the
cost of actually running the same artifacts.

It also scores the flow-sensitive vetter's precision/recall against
the labeled golden corpus (:mod:`repro.analysis.corpus`), times the
repo linter over ``src/``, and enforces the ``# repro: noqa``
suppression budget (the repo must not accumulate more suppressions
than the seed baseline). Everything lands in
``benchmarks/BENCH_analysis.json`` via the ``bench_metrics`` fixture.
"""

from __future__ import annotations

import io
import time
import tokenize
from pathlib import Path
from statistics import median

import pytest

from repro.analysis import check_python, check_sql, error_findings
from repro.analysis.corpus import FIXTURES
from repro.analysis.lint import _NOQA_PATTERN, lint_paths
from repro.codexdb import CodeGenOptions, generate_python, plan_query
from repro.codexdb.sandbox import run_generated_code
from repro.text2sql import generate_workload
from repro.text2sql.workload import sql_to_engine_dialect

REPO_ROOT = Path(__file__).resolve().parent.parent

#: real ``# repro: noqa`` comment suppressions in the tree (the two
#: amortized concats in serving/engine.py); the budget check fails when
#: the count grows past this without the baseline being consciously
#: re-set here
NOQA_BUDGET = 2
#: alternating timings of vetting and of vetting + executing; the
#: assertion uses the median per-repetition ratio, so one slow stretch
#: of the host cannot decide it
REPETITIONS = 7


@pytest.fixture(scope="module")
def setup():
    workload = generate_workload(seed=0, examples_per_template=4)
    queries = sorted({sql_to_engine_dialect(ex.sql) for ex in workload.examples})
    programs = []
    for sql in queries:
        try:
            steps = plan_query(sql)
        except Exception:
            continue
        programs.append(generate_python(steps, CodeGenOptions()))
    return workload.db, queries, programs


def throughput(fn, items, repeats=20):
    start = time.perf_counter()
    for _ in range(repeats):
        for item in items:
            fn(item)
    elapsed = time.perf_counter() - start
    return len(items) * repeats / elapsed


def test_bench_analysis_throughput(
    benchmark, report_printer, bench_metrics, setup
):
    db, queries, programs = setup
    tables = {name: db.table(name) for name in db.table_names()}

    def alternate():
        rates = []
        for _ in range(REPETITIONS):
            rates.append((
                throughput(check_python, programs, repeats=3),
                throughput(
                    lambda code: run_generated_code(code, tables), programs, repeats=1
                ),
            ))
        return rates

    rates = benchmark.pedantic(alternate, rounds=1, iterations=1)
    pycheck_rate, exec_rate = (median(path) for path in zip(*rates))
    vet_speedup = median(vet / run for vet, run in rates)
    sqlcheck_rate = throughput(lambda q: check_sql(q, db.catalog), queries)

    report_printer(
        "ANALYSIS: static analysis throughput",
        [
            f"{'pass':<26}{'corpus':>10}{'items/sec':>12}",
            f"{'pycheck (generated py)':<26}{len(programs):>10}{pycheck_rate:>12.0f}",
            f"{'sqlcheck (workload sql)':<26}{len(queries):>10}{sqlcheck_rate:>12.0f}",
            f"{'vet + execute (sandbox)':<26}{len(programs):>10}{exec_rate:>12.0f}",
        ],
    )
    bench_metrics["analysis/pycheck_programs_per_sec"] = round(pycheck_rate, 1)
    bench_metrics["analysis/sqlcheck_queries_per_sec"] = round(sqlcheck_rate, 1)

    # Every artifact in the shipped pipeline must vet clean.
    assert all(not error_findings(check_python(code)) for code in programs)
    assert all(not check_sql(sql, db.catalog) for sql in queries)
    # Vetting alone must not be slower than vetting + executing.
    assert vet_speedup > 1.0
    assert pycheck_rate > 50
    assert sqlcheck_rate > 50


def _score(reject_fn):
    """(precision, recall, false_positives) of a rejector over the corpus."""
    tp = fp = fn = 0
    for fixture in FIXTURES:
        rejected = reject_fn(fixture.code)
        if rejected and not fixture.safe:
            tp += 1
        elif rejected and fixture.safe:
            fp += 1
        elif not rejected and not fixture.safe:
            fn += 1
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    return precision, recall, fp


def test_bench_vet_precision_recall(report_printer, bench_metrics):
    flow_p, flow_r, flow_fp = _score(
        lambda code: bool(error_findings(check_python(code)))
    )

    report_printer(
        "ANALYSIS: vet precision/recall on the golden corpus "
        f"({len(FIXTURES)} fixtures)",
        [
            f"{'pipeline':<28}{'precision':>10}{'recall':>10}{'false pos':>10}",
            f"{'flow-sensitive (dataflow)':<28}{flow_p:>10.2f}{flow_r:>10.2f}"
            f"{flow_fp:>10}",
        ],
    )
    bench_metrics["analysis/corpus_fixtures"] = len(FIXTURES)
    bench_metrics["analysis/vet_precision"] = round(flow_p, 3)
    bench_metrics["analysis/vet_recall"] = round(flow_r, 3)

    # the flow-sensitive vetter blocks every escape/unbounded fixture
    # and accepts every benign one
    assert flow_p == 1.0 and flow_r == 1.0


def test_bench_lint_walltime(report_printer, bench_metrics):
    src = REPO_ROOT / "src"
    start = time.perf_counter()
    findings = lint_paths([src])
    elapsed = time.perf_counter() - start
    files = len(list(src.rglob("*.py")))

    report_printer(
        "ANALYSIS: repo lint wall-time",
        [
            f"files linted : {files}",
            f"wall time    : {elapsed:.2f}s ({files / elapsed:.0f} files/sec)",
            f"findings     : {len(findings)}",
        ],
    )
    bench_metrics["analysis/lint_files_src"] = files
    bench_metrics["analysis/lint_seconds_src"] = round(elapsed, 3)
    assert findings == []
    assert elapsed < 60


def _count_noqa_comments(root: Path) -> int:
    """Real ``# repro: noqa`` *comment* suppressions under ``root``.

    Counted over tokenized COMMENT tokens, so the pattern appearing in
    string literals (e.g. lint's own tests) does not inflate the count.
    """
    count = 0
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT and _NOQA_PATTERN.search(
                token.string
            ):
                count += 1
    return count


def test_bench_noqa_budget(report_printer, bench_metrics):
    count = sum(
        _count_noqa_comments(REPO_ROOT / d)
        for d in ("src", "tests", "benchmarks")
    )
    report_printer(
        "ANALYSIS: lint suppression budget",
        [
            f"repro: noqa comments : {count}",
            f"budget (seed)        : {NOQA_BUDGET}",
        ],
    )
    bench_metrics["analysis/noqa_suppressions"] = count
    bench_metrics["analysis/noqa_budget"] = NOQA_BUDGET
    assert count <= NOQA_BUDGET, (
        f"{count} '# repro: noqa' suppressions exceed the seed budget of "
        f"{NOQA_BUDGET}; fix the findings instead of suppressing them (or "
        "consciously raise NOQA_BUDGET in this file)"
    )
