"""End-to-end tests for the SQL engine: execution semantics."""

import pytest

from repro.errors import (
    CatalogError,
    SQLAnalysisError,
    SQLExecutionError,
    SQLSyntaxError,
)
from repro.sql import Database, SQLType, Table, TableSchema
from repro.sql.executor import ExecutorOptions


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE emp (id INT, name TEXT, dept TEXT, salary FLOAT)")
    database.execute(
        "INSERT INTO emp VALUES "
        "(1, 'alice', 'eng', 120.0), "
        "(2, 'bob', 'eng', 100.0), "
        "(3, 'carol', 'sales', 90.0), "
        "(4, 'dave', 'sales', 80.0), "
        "(5, 'erin', 'hr', NULL)"
    )
    database.execute("CREATE TABLE dept (name TEXT, building TEXT)")
    database.execute(
        "INSERT INTO dept VALUES ('eng', 'A'), ('sales', 'B'), ('legal', 'C')"
    )
    return database


class TestBasics:
    def test_select_star(self, db):
        result = db.execute("SELECT * FROM emp")
        assert len(result) == 5
        assert result.columns == ["id", "name", "dept", "salary"]  # schema order

    def test_projection_and_alias(self, db):
        result = db.execute("SELECT name AS who, salary * 2 AS double FROM emp LIMIT 1")
        assert result.columns == ["who", "double"]
        assert result.rows[0] == ("alice", 240.0)

    def test_where_filtering(self, db):
        result = db.execute("SELECT name FROM emp WHERE salary > 95")
        assert sorted(r[0] for r in result.rows) == ["alice", "bob"]

    def test_where_excludes_null_comparisons(self, db):
        # erin has NULL salary: NULL > 0 is unknown, row is dropped.
        result = db.execute("SELECT name FROM emp WHERE salary > 0")
        assert "erin" not in [r[0] for r in result.rows]
        result = db.execute("SELECT name FROM emp WHERE NOT salary > 0")
        assert "erin" not in [r[0] for r in result.rows]

    def test_is_null(self, db):
        result = db.execute("SELECT name FROM emp WHERE salary IS NULL")
        assert [r[0] for r in result.rows] == ["erin"]

    def test_in_list(self, db):
        result = db.execute("SELECT name FROM emp WHERE dept IN ('hr', 'sales')")
        assert sorted(r[0] for r in result.rows) == ["carol", "dave", "erin"]

    def test_between(self, db):
        result = db.execute("SELECT name FROM emp WHERE salary BETWEEN 85 AND 105")
        assert sorted(r[0] for r in result.rows) == ["bob", "carol"]

    def test_like(self, db):
        result = db.execute("SELECT name FROM emp WHERE name LIKE 'a%'")
        assert [r[0] for r in result.rows] == ["alice"]
        result = db.execute("SELECT name FROM emp WHERE name LIKE '_ob'")
        assert [r[0] for r in result.rows] == ["bob"]

    def test_order_by_and_limit(self, db):
        result = db.execute("SELECT name FROM emp ORDER BY salary DESC LIMIT 2")
        assert [r[0] for r in result.rows] == ["alice", "bob"]

    def test_order_by_nulls_last(self, db):
        result = db.execute("SELECT name FROM emp ORDER BY salary")
        assert result.rows[-1][0] == "erin"

    def test_order_by_alias(self, db):
        result = db.execute(
            "SELECT name, salary * -1 AS neg FROM emp WHERE salary IS NOT NULL "
            "ORDER BY neg"
        )
        assert result.rows[0][0] == "alice"

    def test_distinct(self, db):
        result = db.execute("SELECT DISTINCT dept FROM emp")
        assert len(result) == 3

    def test_distinct_with_order(self, db):
        result = db.execute("SELECT DISTINCT dept FROM emp ORDER BY dept")
        assert [r[0] for r in result.rows] == ["eng", "hr", "sales"]

    def test_scalar_helper(self, db):
        assert db.execute("SELECT COUNT(*) FROM emp").scalar() == 5

    def test_scalar_rejects_multi(self, db):
        with pytest.raises(SQLExecutionError):
            db.execute("SELECT name FROM emp").scalar()

    def test_column_helper(self, db):
        names = db.execute("SELECT name FROM emp ORDER BY id").column("name")
        assert names[0] == "alice"

    def test_to_dicts(self, db):
        dicts = db.execute("SELECT id, name FROM emp ORDER BY id LIMIT 1").to_dicts()
        assert dicts == [{"id": 1, "name": "alice"}]

    def test_case_when(self, db):
        result = db.execute(
            "SELECT name, CASE WHEN salary >= 100 THEN 'high' "
            "WHEN salary >= 85 THEN 'mid' ELSE 'low' END AS band "
            "FROM emp WHERE salary IS NOT NULL ORDER BY id"
        )
        assert result.column("band") == ["high", "high", "mid", "low"]

    def test_scalar_functions(self, db):
        result = db.execute(
            "SELECT UPPER(name), LENGTH(name), ABS(-3), ROUND(1.567, 1) "
            "FROM emp WHERE id = 1"
        )
        assert result.rows[0] == ("ALICE", 5, 3, 1.6)

    def test_string_concat(self, db):
        result = db.execute("SELECT name || '!' FROM emp WHERE id = 2")
        assert result.rows[0][0] == "bob!"

    def test_division_by_zero_is_null(self, db):
        result = db.execute("SELECT salary / 0 FROM emp WHERE id = 1")
        assert result.rows[0][0] is None


class TestAggregates:
    def test_count_star_vs_count_column(self, db):
        assert db.execute("SELECT COUNT(*) FROM emp").scalar() == 5
        # COUNT(salary) skips the NULL.
        assert db.execute("SELECT COUNT(salary) FROM emp").scalar() == 4

    def test_sum_avg_min_max(self, db):
        result = db.execute(
            "SELECT SUM(salary), AVG(salary), MIN(salary), MAX(salary) FROM emp"
        )
        assert result.rows[0] == (390.0, 97.5, 80.0, 120.0)

    def test_count_distinct(self, db):
        assert db.execute("SELECT COUNT(DISTINCT dept) FROM emp").scalar() == 3

    def test_group_by(self, db):
        result = db.execute(
            "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept ORDER BY dept"
        )
        assert result.rows == [("eng", 2), ("hr", 1), ("sales", 2)]

    def test_group_by_having(self, db):
        result = db.execute(
            "SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) > 1 ORDER BY dept"
        )
        assert [r[0] for r in result.rows] == ["eng", "sales"]

    def test_order_by_aggregate(self, db):
        result = db.execute(
            "SELECT dept, AVG(salary) AS a FROM emp WHERE salary IS NOT NULL "
            "GROUP BY dept ORDER BY a DESC"
        )
        assert result.rows[0][0] == "eng"

    def test_aggregate_arithmetic(self, db):
        result = db.execute("SELECT MAX(salary) - MIN(salary) FROM emp")
        assert result.scalar() == 40.0

    def test_empty_group_aggregate_is_null(self, db):
        assert db.execute("SELECT SUM(salary) FROM emp WHERE id > 99").scalar() is None

    def test_count_of_empty_is_zero(self, db):
        assert db.execute("SELECT COUNT(*) FROM emp WHERE id > 99").scalar() == 0

    def test_having_without_group_raises(self, db):
        with pytest.raises(SQLAnalysisError):
            db.execute("SELECT name FROM emp HAVING name = 'x'")

    def test_star_with_aggregation_raises(self, db):
        with pytest.raises(SQLAnalysisError):
            db.execute("SELECT * FROM emp GROUP BY dept")


class TestJoins:
    def test_inner_join(self, db):
        result = db.execute(
            "SELECT emp.name, dept.building FROM emp "
            "JOIN dept ON emp.dept = dept.name ORDER BY emp.id"
        )
        assert result.rows[0] == ("alice", "A")
        assert len(result) == 4  # erin's dept 'hr' has no match

    def test_left_join_pads_nulls(self, db):
        result = db.execute(
            "SELECT emp.name, dept.building FROM emp "
            "LEFT JOIN dept ON emp.dept = dept.name ORDER BY emp.id"
        )
        assert len(result) == 5
        assert result.rows[-1] == ("erin", None)

    def test_cross_join_cardinality(self, db):
        result = db.execute("SELECT * FROM emp CROSS JOIN dept")
        assert len(result) == 15

    def test_join_with_aliases(self, db):
        result = db.execute(
            "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name "
            "WHERE d.building = 'B' ORDER BY e.name"
        )
        assert [r[0] for r in result.rows] == ["carol", "dave"]

    def test_join_then_group(self, db):
        result = db.execute(
            "SELECT d.building, COUNT(*) AS n FROM emp e "
            "JOIN dept d ON e.dept = d.name GROUP BY d.building ORDER BY d.building"
        )
        assert result.rows == [("A", 2), ("B", 2)]

    def test_hash_and_nested_loop_agree(self, db):
        sql = (
            "SELECT e.name, d.building FROM emp e "
            "JOIN dept d ON e.dept = d.name ORDER BY e.name"
        )
        fast = db.execute(sql)
        slow_db = Database(ExecutorOptions(predicate_pushdown=False, hash_joins=False))
        slow_db.catalog = db.catalog
        slow = slow_db.execute(sql)
        assert fast.rows == slow.rows

    def test_pushdown_reduces_join_probes(self, db):
        sql = (
            "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name "
            "WHERE e.salary > 110"
        )
        db.execute(sql)
        with_pushdown = db.explain_stats().join_probes
        slow_db = Database(ExecutorOptions(predicate_pushdown=False, hash_joins=False))
        slow_db.catalog = db.catalog
        slow_db.execute(sql)
        without = slow_db.explain_stats().join_probes
        assert with_pushdown < without

    def test_ambiguous_bare_column_raises(self, db):
        with pytest.raises(SQLAnalysisError):
            db.execute("SELECT name FROM emp JOIN dept ON emp.dept = dept.name")


class TestErrors:
    def test_unknown_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM nothere")

    def test_unknown_column(self, db):
        with pytest.raises(SQLAnalysisError):
            db.execute("SELECT nope FROM emp")

    def test_syntax_error(self, db):
        with pytest.raises(SQLSyntaxError):
            db.execute("SELEKT * FROM emp")

    def test_duplicate_create(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE emp (id INT)")

    def test_insert_arity_mismatch(self, db):
        with pytest.raises(SQLExecutionError):
            db.execute("INSERT INTO emp VALUES (1, 'x')")

    def test_type_coercion_failure(self, db):
        with pytest.raises(SQLExecutionError):
            db.execute("INSERT INTO emp VALUES ('notanint', 'x', 'y', 1.0)")

    def test_comparing_text_to_number_raises(self, db):
        with pytest.raises(SQLExecutionError):
            db.execute("SELECT * FROM emp WHERE name > 5")


class TestInsertVariants:
    def test_insert_with_column_list_fills_nulls(self, db):
        db.execute("INSERT INTO emp (id, name) VALUES (9, 'zed')")
        row = db.execute("SELECT * FROM emp WHERE id = 9").to_dicts()[0]
        assert row["name"] == "zed"
        assert row["salary"] is None and row["dept"] is None

    def test_insert_negative_number(self, db):
        db.execute("INSERT INTO emp VALUES (10, 'neg', 'eng', -5.0)")
        assert db.execute("SELECT salary FROM emp WHERE id = 10").scalar() == -5.0

    def test_rowcount(self, db):
        result = db.execute("INSERT INTO dept VALUES ('x', 'D'), ('y', 'E')")
        assert result.rowcount == 2


class TestTablesAndCSV:
    def test_from_dicts_infers_types(self):
        table = Table.from_dicts(
            "t", [{"a": 1, "b": "x", "c": 1.5}, {"a": 2, "b": "y", "c": None}]
        )
        types = [c.sql_type for c in table.schema.columns]
        assert types == [SQLType.INT, SQLType.TEXT, SQLType.FLOAT]

    def test_csv_roundtrip(self, db, tmp_path):
        path = tmp_path / "emp.csv"
        db.table("emp").to_csv(path)
        reloaded = Table.from_csv("emp2", path)
        assert len(reloaded) == len(db.table("emp"))
        # NULL survives the roundtrip as empty cell -> None.
        salary_idx = reloaded.schema.index_of("salary")
        assert any(row[salary_idx] is None for row in reloaded.rows)

    def test_csv_type_inference(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,c\n1,1.5,x\n2,2.5,y\n")
        table = Table.from_csv("d", path)
        types = [c.sql_type for c in table.schema.columns]
        assert types == [SQLType.INT, SQLType.FLOAT, SQLType.TEXT]

    def test_load_csv_into_database(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,name\n1,a\n2,b\n")
        database = Database()
        database.load_csv("t", path)
        assert database.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_empty_csv_raises(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(SQLExecutionError):
            Table.from_csv("e", path)
