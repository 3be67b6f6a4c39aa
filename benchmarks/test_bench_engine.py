"""Engine ablation — predicate pushdown and hash joins (DESIGN §5).

Measures join probes and wall-clock for a selective filtered join with
the optimizer's two features on and off. Not a paper artifact; an
ablation of the substrate's own design choices.
"""

import pytest

from repro.sql import Database
from repro.sql.executor import ExecutorOptions
from repro.utils.rng import SeededRNG


@pytest.fixture(scope="module")
def populated():
    db = Database()
    rng = SeededRNG(0)
    db.execute("CREATE TABLE fact (id INT, dim_id INT, value INT)")
    db.execute("CREATE TABLE dim (dim_id INT, label TEXT)")
    for i in range(60):
        db.execute(f"INSERT INTO dim VALUES ({i}, 'label{i}')")
    rows = ", ".join(
        f"({i}, {rng.randint(0, 60)}, {rng.randint(0, 1000)})" for i in range(600)
    )
    db.execute(f"INSERT INTO fact VALUES {rows}")
    return db

SQL = (
    "SELECT f.id, d.label FROM fact f JOIN dim d ON f.dim_id = d.dim_id "
    "WHERE f.value > 900"
)


def run_with(db, options):
    engine = Database(options)
    engine.catalog = db.catalog
    result = engine.execute(SQL)
    return result, engine.explain_stats()


def test_bench_engine_ablation(benchmark, report_printer, populated):
    configs = {
        "naive (no pushdown, nested loop)": ExecutorOptions(False, False),
        "pushdown only": ExecutorOptions(True, False),
        "hash join only": ExecutorOptions(False, True),
        "pushdown + hash join": ExecutorOptions(True, True),
    }
    lines = [f"{'configuration':<34}{'rows':>6}{'join probes':>13}"]
    stats_by_config = {}
    for name, options in configs.items():
        result, stats = run_with(populated, options)
        stats_by_config[name] = (len(result), stats.join_probes)
        lines.append(f"{name:<34}{len(result):>6}{stats.join_probes:>13}")

    fast = benchmark(lambda: run_with(populated, ExecutorOptions(True, True)))
    report_printer("ENGINE: optimizer ablation on a filtered join", lines)

    # All configurations agree on the answer.
    row_counts = {rows for rows, _ in stats_by_config.values()}
    assert len(row_counts) == 1
    # Each optimization reduces probe counts; both together reduce most.
    naive = stats_by_config["naive (no pushdown, nested loop)"][1]
    best = stats_by_config["pushdown + hash join"][1]
    assert best < naive / 10


def test_bench_index_scan(benchmark, report_printer, populated):
    """Hash-index point lookups vs full scans on the same predicate."""
    engine = Database(ExecutorOptions(True, True))
    engine.catalog = populated.catalog
    sql = "SELECT COUNT(*) FROM fact WHERE dim_id = 7"

    engine.execute(sql)
    full_scan_rows = engine.explain_stats().rows_scanned
    engine.execute("CREATE INDEX idx_dim ON fact (dim_id)")

    result = benchmark(engine.execute, sql)
    indexed_rows = engine.explain_stats().rows_scanned
    lookups = engine.explain_stats().index_lookups

    report_printer(
        "ENGINE: hash-index point lookup",
        [
            f"query: {sql}",
            f"rows bound without index : {full_scan_rows}",
            f"rows bound with index    : {indexed_rows} ({lookups} index lookup)",
            f"matching rows            : {result.scalar()}",
        ],
    )
    assert indexed_rows < full_scan_rows
    assert lookups == 1


def test_bench_index_dml(benchmark, report_printer, populated):
    """Keyed UPDATE/DELETE through the hash index vs full scans."""
    update = "UPDATE fact SET value = value + 1 WHERE dim_id = 7"
    delete = "DELETE FROM fact WHERE dim_id = 7"

    def fresh(indexed):
        engine = Database()
        engine.execute("CREATE TABLE fact (id INT, dim_id INT, value INT)")
        engine.table("fact").insert_many(populated.table("fact").rows)
        if indexed:
            engine.execute("CREATE INDEX idx_dim ON fact (dim_id)")
        return engine

    bound = {}
    for indexed in (False, True):
        engine = fresh(indexed)
        for sql in (update, delete):
            engine.execute(sql)
            bound[indexed, sql] = engine.explain_stats().rows_scanned
        assert engine.explain_stats().index_lookups == int(indexed)

    engine = fresh(True)
    result = benchmark(engine.execute, update)
    report_printer(
        "ENGINE: keyed UPDATE/DELETE through the hash index",
        [
            f"statements: {update}; {delete}",
            f"matching rows               : {result.rowcount}",
            f"UPDATE rows bound, no index : {bound[False, update]}",
            f"UPDATE rows bound, index    : {bound[True, update]}",
            f"DELETE rows bound, no index : {bound[False, delete]}",
            f"DELETE rows bound, index    : {bound[True, delete]}",
        ],
    )
    for sql in (update, delete):
        assert bound[True, sql] < bound[False, sql]
    assert bound[True, update] == bound[True, delete] == result.rowcount
