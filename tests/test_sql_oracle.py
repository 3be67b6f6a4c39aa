"""SELECT answers checked against stdlib ``sqlite3``, on one node and on two shards.

Each case runs on ``Database``, on a 2-shard ``ClusterDatabase`` and on
``sqlite3``. The engine must give sqlite's column names and the same
multiset of rows, or reject the query as sqlite does.
"""

import sqlite3
from collections import Counter

import pytest

from repro.errors import SQLAnalysisError
from repro.sql import Database
from repro.sql.cluster import ClusterDatabase

SETUP = [
    "CREATE TABLE a (id INT, v INT)",
    "INSERT INTO a VALUES (1, 10), (2, 20)",
    "CREATE TABLE b (id INT, w INT)",
    "INSERT INTO b VALUES (1, 5), (2, 7)",
    "CREATE TABLE t (id INT, b INT, a TEXT)",
    "INSERT INTO t VALUES (1, 2, 'x'), (2, 3, 'y'), (3, 4, 'z')",
    "CREATE TABLE e (id INT, v INT)",
]

CASES = {
    # Names bind before any row is read, whatever the data.
    "unknown-column-no-row-passes": "SELECT nosuch FROM a WHERE id > 5",
    "unknown-column-empty-table": "SELECT nosuch FROM e",
    "ambiguous-bare-column-no-row-joins":
        "SELECT id FROM a JOIN b ON a.id = b.id WHERE a.v > 100",
    "star-in-schema-order": "SELECT * FROM t",
    "star-over-empty-result": "SELECT * FROM a WHERE id > 5",
    # A WHERE on the right side of a LEFT JOIN sees the NULL padding.
    "left-join-where-on-right":
        "SELECT a.id, b.w FROM a LEFT JOIN b ON a.id = b.id WHERE b.w = 5",
    "left-join-right-is-null":
        "SELECT a.id, b.w FROM a LEFT JOIN b ON a.id = b.id WHERE b.w IS NULL",
    "star-over-join": "SELECT * FROM t JOIN b ON t.id = b.id",
    "bare-column-conjunct-over-join":
        "SELECT * FROM t JOIN b ON t.id = b.id WHERE w > 5",
}


@pytest.fixture(scope="module")
def engines(tmp_path_factory):
    single = Database()
    cluster = ClusterDatabase(
        tmp_path_factory.mktemp("cluster"), num_shards=2, durable=False
    )
    oracle = sqlite3.connect(":memory:")
    for sql in SETUP:
        single.execute(sql)
        cluster.execute(sql)
        oracle.execute(sql)
    yield {"single": single, "cluster": cluster}, oracle
    cluster.close()
    oracle.close()


@pytest.mark.parametrize("engine", ["single", "cluster"])
@pytest.mark.parametrize("sql", list(CASES.values()), ids=list(CASES))
def test_select_matches_sqlite(engines, engine, sql):
    databases, oracle = engines
    db = databases[engine]
    try:
        cursor = oracle.execute(sql)
    except sqlite3.Error:
        with pytest.raises(SQLAnalysisError):
            db.execute(sql)
        return
    expected = [d[0] for d in cursor.description], Counter(cursor.fetchall())
    result = db.execute(sql)
    assert (result.columns, Counter(result.rows)) == expected
