"""Tests for UPDATE, DELETE, DROP, and EXPLAIN."""

import sqlite3
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError, SQLAnalysisError, SQLSyntaxError
from repro.sql import Database
from repro.sql.cluster import ClusterDatabase


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE items (id INT, name TEXT, price FLOAT)")
    database.execute(
        "INSERT INTO items VALUES (1, 'pen', 2.0), (2, 'book', 10.0), "
        "(3, 'lamp', 25.0), (4, 'desk', NULL)"
    )
    return database


class TestUpdate:
    def test_update_with_where(self, db):
        result = db.execute("UPDATE items SET price = 3.0 WHERE name = 'pen'")
        assert result.rowcount == 1
        assert db.execute("SELECT price FROM items WHERE id = 1").scalar() == 3.0

    def test_update_all_rows(self, db):
        result = db.execute("UPDATE items SET price = 1.0")
        assert result.rowcount == 4

    def test_update_expression_uses_old_values(self, db):
        db.execute("UPDATE items SET price = price * 2 WHERE id = 2")
        assert db.execute("SELECT price FROM items WHERE id = 2").scalar() == 20.0

    def test_update_multiple_columns(self, db):
        db.execute("UPDATE items SET name = 'pencil', price = 0.5 WHERE id = 1")
        row = db.execute("SELECT name, price FROM items WHERE id = 1").rows[0]
        assert row == ("pencil", 0.5)

    def test_update_null_where_excludes_row(self, db):
        # price IS NULL row: "price > 5" is unknown -> untouched.
        result = db.execute("UPDATE items SET name = 'x' WHERE price > 5")
        assert result.rowcount == 2

    def test_update_unknown_column_raises(self, db):
        with pytest.raises(SQLAnalysisError):
            db.execute("UPDATE items SET missing = 1")

    def test_update_coerces_types(self, db):
        db.execute("UPDATE items SET price = 7 WHERE id = 1")
        value = db.execute("SELECT price FROM items WHERE id = 1").scalar()
        assert isinstance(value, float)

    def test_update_syntax_error(self, db):
        with pytest.raises(SQLSyntaxError):
            db.execute("UPDATE items SET price 3")


class TestDelete:
    def test_delete_with_where(self, db):
        result = db.execute("DELETE FROM items WHERE price > 9")
        assert result.rowcount == 2
        assert db.execute("SELECT COUNT(*) FROM items").scalar() == 2

    def test_delete_all(self, db):
        result = db.execute("DELETE FROM items")
        assert result.rowcount == 4
        assert db.execute("SELECT COUNT(*) FROM items").scalar() == 0

    def test_delete_null_predicate_keeps_row(self, db):
        db.execute("DELETE FROM items WHERE price > 0")
        names = db.execute("SELECT name FROM items").column("name")
        assert names == ["desk"]  # NULL price row survives

    def test_delete_unknown_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("DELETE FROM ghosts")


class TestDrop:
    def test_drop_removes_table(self, db):
        db.execute("DROP TABLE items")
        assert "items" not in db.table_names()

    def test_drop_missing_raises(self, db):
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE ghosts")


class TestExplain:
    def test_explain_returns_plan_rows(self, db):
        result = db.execute("EXPLAIN SELECT name FROM items WHERE price > 5")
        assert result.columns == ["plan"]
        text = "\n".join(r[0] for r in result.rows)
        assert "Scan items" in text
        assert "Project: name" in text

    def test_explain_shows_pushdown(self, db):
        db.execute("CREATE TABLE other (id INT, tag TEXT)")
        db.execute("INSERT INTO other VALUES (1, 'a')")
        result = db.execute(
            "EXPLAIN SELECT i.name FROM items i JOIN other o ON i.id = o.id "
            "WHERE i.price > 5"
        )
        text = "\n".join(r[0] for r in result.rows)
        assert "pushed-filter" in text
        assert "hash join" in text

    def test_explain_nested_loop_for_non_equi(self, db):
        db.execute("CREATE TABLE other (id INT, tag TEXT)")
        db.execute("INSERT INTO other VALUES (1, 'a')")
        result = db.execute(
            "EXPLAIN SELECT i.name FROM items i JOIN other o ON i.id > o.id"
        )
        text = "\n".join(r[0] for r in result.rows)
        assert "nested-loop join" in text

    def test_explain_aggregate_and_sort(self, db):
        result = db.execute(
            "EXPLAIN SELECT name, COUNT(*) FROM items GROUP BY name "
            "ORDER BY name LIMIT 2"
        )
        text = "\n".join(r[0] for r in result.rows)
        assert "Aggregate: group by name" in text
        assert "Sort:" in text
        assert "Limit: 2" in text

    def test_explain_does_not_execute(self, db):
        before = db.execute("SELECT COUNT(*) FROM items").scalar()
        db.execute("EXPLAIN SELECT * FROM items")
        assert db.execute("SELECT COUNT(*) FROM items").scalar() == before


class TestRoundTripSQL:
    def test_update_ast_roundtrip(self):
        from repro.sql import parse_sql

        stmt = parse_sql("UPDATE t SET a = 1, b = 'x' WHERE c > 2")
        reparsed = parse_sql(stmt.sql())
        assert reparsed.sql() == stmt.sql()

    def test_delete_ast_roundtrip(self):
        from repro.sql import parse_sql

        stmt = parse_sql("DELETE FROM t WHERE a IS NULL")
        assert parse_sql(stmt.sql()).sql() == stmt.sql()


# -- differential oracle: indexed / unindexed / sqlite3 / 2-shard cluster ----
_KEYS = st.sampled_from(["'a'", "'b'", "'c'", "'d'"])
_KEY_OR_NULL = st.one_of(_KEYS, st.just("NULL"))
_INT_OR_NULL = st.one_of(st.integers(-3, 6).map(str), st.just("NULL"))
_PREDICATES = st.one_of(
    st.integers(-3, 6).map(lambda n: f"v > {n}"),
    st.integers(-3, 6).map(lambda n: f"w = {n}"),
    st.sampled_from(["w IS NULL", "v IS NOT NULL", "k IS NULL"]),
)
_SET_VALUES = st.one_of(
    _INT_OR_NULL, st.sampled_from(["w + 1", "v", "v - w"])
)


def _dml(allow_key_update):
    keyed = _KEYS.map(lambda key: f"k = {key}")
    where = st.one_of(
        keyed,
        _PREDICATES,
        st.tuples(keyed, _PREDICATES).map(lambda p: f"{p[0]} AND {p[1]}"),
    )
    updates = st.tuples(_SET_VALUES, where).map(
        lambda p: f"UPDATE t SET w = {p[0]} WHERE {p[1]}"
    )
    if allow_key_update:
        updates = st.one_of(
            updates,
            st.tuples(_KEY_OR_NULL, where).map(
                lambda p: f"UPDATE t SET k = {p[0]} WHERE {p[1]}"
            ),
        )
    return st.one_of(
        st.tuples(_KEY_OR_NULL, _INT_OR_NULL, _INT_OR_NULL).map(
            lambda r: f"INSERT INTO t VALUES ({r[0]}, {r[1]}, {r[2]})"
        ),
        updates,
        where.map(lambda w: f"DELETE FROM t WHERE {w}"),
    )


_SCHEMA = "CREATE TABLE t (k TEXT, v INT, w INT)"
_ROWS = "INSERT INTO t VALUES ('a', 1, 1), ('a', 2, NULL), ('b', NULL, 3), (NULL, 4, 4)"


def _repro_db(indexed):
    database = Database()
    database.execute(_SCHEMA)
    database.execute(_ROWS)
    if indexed:
        database.execute("CREATE INDEX idx_k ON t (k)")
    return database


def _contents(run):
    return Counter(tuple(row) for row in run("SELECT k, v, w FROM t"))


@settings(max_examples=40, deadline=None)
@given(st.lists(_dml(allow_key_update=True), min_size=1, max_size=25))
def test_dml_matches_unindexed_and_sqlite(statements):
    indexed, plain = _repro_db(True), _repro_db(False)
    oracle = sqlite3.connect(":memory:")
    oracle.execute(_SCHEMA)
    oracle.execute(_ROWS)
    for sql in statements:
        want = oracle.execute(sql).rowcount
        assert indexed.execute(sql).rowcount == want, sql
        assert plain.execute(sql).rowcount == want, sql
        expected = _contents(lambda q: oracle.execute(q).fetchall())
        assert _contents(lambda q: indexed.execute(q).rows) == expected, sql
        assert _contents(lambda q: plain.execute(q).rows) == expected, sql
        # Point reads through the (possibly rebuilt) index stay correct.
        for key in ("a", "b"):
            probe = f"SELECT k, v, w FROM t WHERE k = '{key}'"
            assert Counter(indexed.execute(probe).rows) == Counter(
                oracle.execute(probe).fetchall()
            ), sql
    oracle.close()


@settings(max_examples=15, deadline=None)
@given(st.lists(_dml(allow_key_update=False), min_size=1, max_size=15))
def test_dml_on_two_shards_matches_single_node(statements):
    single = _repro_db(True)
    with tempfile.TemporaryDirectory() as directory:
        cluster = ClusterDatabase(directory, num_shards=2, durable=False)
        try:
            for sql in (_SCHEMA, _ROWS, "CREATE INDEX idx_k ON t (k)"):
                cluster.execute(sql)
            for sql in statements:
                assert (
                    cluster.execute(sql).rowcount == single.execute(sql).rowcount
                ), sql
                assert _contents(lambda q: cluster.execute(q).rows) == _contents(
                    lambda q: single.execute(q).rows
                ), sql
        finally:
            cluster.close()
