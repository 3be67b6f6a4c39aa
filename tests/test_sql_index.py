"""Tests for hash indexes: creation, maintenance, and index scans."""

import pytest

from repro.errors import SQLAnalysisError, SQLExecutionError
from repro.sql import Database


def _users():
    database = Database()
    database.execute("CREATE TABLE users (id INT, city TEXT, score INT)")
    rows = ", ".join(
        f"({i}, '{['boston', 'denver', 'austin'][i % 3]}', {i * 10})"
        for i in range(30)
    )
    database.execute(f"INSERT INTO users VALUES {rows}")
    return database


@pytest.fixture
def db():
    return _users()


class TestIndexBasics:
    def test_create_index_statement(self, db):
        db.execute("CREATE INDEX idx_city ON users (city)")
        assert db.table("users").has_index("city")
        assert db.table("users").index_names() == ["city"]

    def test_create_index_unknown_column_raises(self, db):
        with pytest.raises(SQLAnalysisError):
            db.execute("CREATE INDEX idx ON users (ghost)")

    def test_index_lookup_returns_positions(self, db):
        table = db.table("users")
        table.create_index("city")
        positions = table.index_lookup("city", "boston")
        assert positions == [i for i in range(30) if i % 3 == 0]

    def test_lookup_without_index_raises(self, db):
        with pytest.raises(SQLExecutionError):
            db.table("users").index_lookup("score", 10)


class TestIndexScans:
    def test_equality_uses_index(self, db):
        db.execute("CREATE INDEX idx_city ON users (city)")
        result = db.execute("SELECT COUNT(*) FROM users WHERE city = 'denver'")
        assert result.scalar() == 10
        stats = db.explain_stats()
        assert stats.index_lookups == 1
        assert stats.rows_scanned == 10  # only the matching rows were bound

    def test_reversed_equality_uses_index(self, db):
        db.execute("CREATE INDEX idx_city ON users (city)")
        db.execute("SELECT COUNT(*) FROM users WHERE 'austin' = city")
        assert db.explain_stats().index_lookups == 1

    def test_without_index_full_scan(self, db):
        db.execute("SELECT COUNT(*) FROM users WHERE city = 'denver'")
        stats = db.explain_stats()
        assert stats.index_lookups == 0
        assert stats.rows_scanned == 30

    def test_index_scan_same_answer_as_full_scan(self, db):
        sql = "SELECT id FROM users WHERE city = 'boston' ORDER BY id"
        before = db.execute(sql).rows
        db.execute("CREATE INDEX idx_city ON users (city)")
        after = db.execute(sql).rows
        assert before == after

    def test_extra_conjuncts_still_applied(self, db):
        db.execute("CREATE INDEX idx_city ON users (city)")
        result = db.execute(
            "SELECT COUNT(*) FROM users WHERE city = 'boston' AND score > 100"
        )
        expected = sum(1 for i in range(30) if i % 3 == 0 and i * 10 > 100)
        assert result.scalar() == expected

    def test_int_index_with_coercion(self, db):
        db.execute("CREATE INDEX idx_score ON users (score)")
        assert db.execute("SELECT COUNT(*) FROM users WHERE score = 100").scalar() == 1
        assert db.explain_stats().index_lookups == 1

    def test_index_miss_returns_empty(self, db):
        db.execute("CREATE INDEX idx_city ON users (city)")
        result = db.execute("SELECT * FROM users WHERE city = 'nowhere'")
        assert len(result) == 0


class TestIndexMaintenance:
    def test_insert_updates_index(self, db):
        db.execute("CREATE INDEX idx_city ON users (city)")
        db.execute("INSERT INTO users VALUES (99, 'boston', 5)")
        result = db.execute("SELECT COUNT(*) FROM users WHERE city = 'boston'")
        assert result.scalar() == 11

    def test_delete_invalidates_and_rebuilds(self, db):
        db.execute("CREATE INDEX idx_city ON users (city)")
        db.execute("DELETE FROM users WHERE city = 'boston'")
        assert db.execute("SELECT COUNT(*) FROM users WHERE city = 'boston'").scalar() == 0
        assert db.execute("SELECT COUNT(*) FROM users WHERE city = 'denver'").scalar() == 10

    def test_update_invalidates_and_rebuilds(self, db):
        db.execute("CREATE INDEX idx_city ON users (city)")
        db.execute("UPDATE users SET city = 'boston' WHERE city = 'denver'")
        assert db.execute("SELECT COUNT(*) FROM users WHERE city = 'boston'").scalar() == 20
        assert db.execute("SELECT COUNT(*) FROM users WHERE city = 'denver'").scalar() == 0

    def test_index_survives_mixed_dml_sequence(self, db):
        db.execute("CREATE INDEX idx_city ON users (city)")
        db.execute("DELETE FROM users WHERE id < 6")
        db.execute("INSERT INTO users VALUES (100, 'austin', 1)")
        db.execute("UPDATE users SET score = 0 WHERE city = 'austin'")
        via_index = db.execute(
            "SELECT COUNT(*) FROM users WHERE city = 'austin'"
        ).scalar()
        manual = sum(
            1 for row in db.table("users").rows
            if row[db.table("users").schema.index_of("city")] == "austin"
        )
        assert via_index == manual

    def test_create_index_roundtrip_sql(self):
        from repro.sql import parse_sql

        stmt = parse_sql("CREATE INDEX i ON t (c)")
        assert parse_sql(stmt.sql()) == stmt


class TestIndexedDML:
    def test_keyed_update_probes_index(self, db):
        db.execute("CREATE INDEX idx_city ON users (city)")
        result = db.execute("UPDATE users SET score = 0 WHERE city = 'denver'")
        assert result.rowcount == 10
        stats = db.explain_stats()
        assert stats.index_lookups == 1
        assert stats.rows_scanned == 10

    def test_keyed_delete_probes_index(self, db):
        db.execute("CREATE INDEX idx_id ON users (id)")
        result = db.execute("DELETE FROM users WHERE id = 7")
        assert result.rowcount == 1
        stats = db.explain_stats()
        assert stats.index_lookups == 1
        assert stats.rows_scanned == 1
        assert db.execute("SELECT COUNT(*) FROM users WHERE id = 8").scalar() == 1

    def test_unindexed_dml_scans_every_row(self, db):
        db.execute("UPDATE users SET score = 0 WHERE city = 'denver'")
        stats = db.explain_stats()
        assert stats.index_lookups == 0
        assert stats.rows_scanned == 30

    def test_update_of_indexed_column_keeps_point_reads(self, db):
        db.execute("CREATE INDEX idx_city ON users (city)")
        db.execute("UPDATE users SET city = 'austin' WHERE city = 'boston'")
        assert db.execute("SELECT COUNT(*) FROM users WHERE city = 'boston'").scalar() == 0
        assert db.execute("SELECT COUNT(*) FROM users WHERE city = 'austin'").scalar() == 20
        db.execute("UPDATE users SET city = 'boston' WHERE id = 3")
        assert db.execute("SELECT id FROM users WHERE city = 'boston'").rows == [(3,)]

    @pytest.mark.parametrize("indexed", [False, True])
    def test_failing_set_leaves_every_row_unchanged(self, indexed):
        db = Database()
        db.execute("CREATE TABLE t (k TEXT, n INT, s TEXT)")
        db.execute("INSERT INTO t VALUES ('a', 1, '10'), ('a', 2, 'oops'), ('b', 3, '30')")
        if indexed:
            db.execute("CREATE INDEX idx_k ON t (k)")
        before = list(db.table("t").rows)
        # The first matched row coerces; the second cannot.
        with pytest.raises(SQLExecutionError):
            db.execute("UPDATE t SET n = s WHERE k = 'a'")
        assert db.table("t").rows == before
        assert db.execute("SELECT n FROM t WHERE k = 'a'").rows == [(1,), (2,)]

    @pytest.mark.parametrize("sql", [
        "SELECT * FROM users WHERE id = 'abc'",
        "SELECT * FROM users WHERE id = '5'",
        "SELECT * FROM users WHERE id = 1.5",
        "UPDATE users SET score = 0 WHERE id = 'abc'",
        "UPDATE users SET score = 0 WHERE id = 2.0",
        "DELETE FROM users WHERE id = 'abc'",
        "DELETE FROM users WHERE id = 1.5",
    ])
    def test_probe_outcome_same_with_and_without_index(self, sql):
        def outcome(indexed):
            database = _users()
            if indexed:
                database.execute("CREATE INDEX idx_id ON users (id)")
            try:
                result = database.execute(sql)
            except SQLExecutionError as exc:
                return ("error", str(exc))
            return (result.rows, result.rowcount, database.table("users").rows)

        assert outcome(indexed=True) == outcome(indexed=False)

    def test_uncoercible_probe_falls_back_to_scan(self, db):
        db.execute("CREATE INDEX idx_id ON users (id)")
        with pytest.raises(SQLExecutionError, match="cannot compare"):
            db.execute("DELETE FROM users WHERE id = 'abc'")
        assert db.explain_stats().index_lookups == 0
        db.execute("DELETE FROM users")
        assert db.execute("SELECT * FROM users WHERE id = 'abc'").rows == []
