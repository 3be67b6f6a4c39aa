"""Tests for the SQL binder and the shared expression traversal."""

import typing

import pytest

import repro.sql.ast as sql_ast
from repro.errors import SQLAnalysisError, SQLBindError
from repro.sql import Database, parse_sql
from repro.sql.ast import ColumnRef, Expr, expr_children, map_children
from repro.sql.bind import BoundColumn, bind_select
from repro.sql.types import SQLType


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE emp (id INT, name TEXT, dept TEXT, pay FLOAT)")
    database.execute(
        "INSERT INTO emp VALUES (1, 'ann', 'eng', 10.0), (2, 'bo', 'ops', 20.0)"
    )
    database.execute("CREATE TABLE dept (dept TEXT, floor INT)")
    database.execute("INSERT INTO dept VALUES ('eng', 1), ('ops', 2)")
    return database


def bind(db, sql):
    return bind_select(parse_sql(sql), db.catalog)


class TestResolve:
    def test_refs_resolve_to_slot_index_and_type(self, db):
        bound = bind(
            db, "SELECT e.name, floor FROM emp e JOIN dept d ON e.dept = d.dept"
        )
        assert [slot.name for slot in bound.slots] == ["e", "d"]
        assert bound.columns[ColumnRef("name", "e")] == BoundColumn(0, 1, SQLType.TEXT)
        assert bound.columns[ColumnRef("floor")] == BoundColumn(1, 1, SQLType.INT)
        assert bound.columns[ColumnRef("dept", "d")] == BoundColumn(1, 0, SQLType.TEXT)

    @pytest.mark.parametrize(
        "sql, rule",
        [
            ("SELECT bogus FROM emp", "unknown-column"),
            ("SELECT e.bogus FROM emp e", "unknown-column"),
            ("SELECT z.name FROM emp e", "unknown-alias"),
            ("SELECT z.* FROM emp e", "unknown-alias"),
            ("SELECT dept FROM emp JOIN dept ON emp.dept = dept.dept", "ambiguous-column"),
            ("SELECT id FROM emp WHERE id IN (SELECT id FROM dept)", "unknown-column"),
        ],
    )
    def test_bad_names_raise_with_their_rule(self, db, sql, rule):
        with pytest.raises(SQLBindError) as caught:
            bind(db, sql)
        assert caught.value.rule == rule
        assert isinstance(caught.value, SQLAnalysisError)

    def test_bad_name_raises_before_any_row_is_read(self, db):
        with pytest.raises(SQLBindError):
            db.execute("SELECT name FROM emp WHERE nope > 1")
        assert db.last_stats.rows_scanned == 0

    def test_subquery_binds_in_its_own_scope(self, db):
        bound = bind(db, "SELECT name FROM emp WHERE dept IN (SELECT dept FROM dept)")
        assert bound.has_subquery
        # The outer ``dept`` is emp's; the inner one is bound apart.
        assert bound.columns[ColumnRef("dept")] == BoundColumn(0, 2, SQLType.TEXT)


class TestOutputs:
    def test_star_expands_in_from_then_schema_order(self, db):
        bound = bind(db, "SELECT *, d.* FROM emp JOIN dept d ON emp.dept = d.dept")
        assert bound.names == (
            "id", "name", "dept", "pay", "dept", "floor", "dept", "floor",
        )
        assert bound.outputs[4] == ColumnRef("dept", "d")

    def test_order_by_resolves_to_output_or_expression(self, db):
        bound = bind(db, "SELECT name AS n, pay FROM emp ORDER BY n, pay, id, pay + 1")
        assert bound.order[:3] == (0, 1, ColumnRef("id"))
        assert bound.order[3].sql() == "(pay + 1)"

    def test_aggregate_flag(self, db):
        assert bind(db, "SELECT COUNT(*) FROM emp").aggregate
        assert bind(db, "SELECT dept FROM emp GROUP BY dept").aggregate
        assert not bind(db, "SELECT name FROM emp ORDER BY pay").aggregate

    def test_slots_of(self, db):
        bound = bind(
            db, "SELECT name FROM emp JOIN dept d ON emp.dept = d.dept "
            "WHERE floor > 1 AND pay > name"
        )
        left, right = bound.query.where.left, bound.query.where.right
        assert bound.slots_of(left) == {1}
        assert bound.slots_of(right) == {0}
        assert bound.slots_of(bound.query.joins[0].condition) == {0, 1}


class TestJoins:
    def test_hash_join_build_side_follows_the_bound_slot(self, db):
        for condition in ("emp.dept = d.dept", "d.dept = emp.dept"):
            result = db.execute(
                f"SELECT name, floor FROM emp JOIN dept d ON {condition} ORDER BY name"
            )
            assert result.rows == [("ann", 1), ("bo", 2)]

    def test_left_join_right_filter_is_not_pushed(self, db):
        db.execute("INSERT INTO emp VALUES (3, 'cy', 'hr', 5.0)")
        sql = (
            "SELECT name, floor FROM emp LEFT JOIN dept d ON emp.dept = d.dept "
            "WHERE floor IS NULL AND pay > 1"
        )
        assert db.execute(sql).rows == [("cy", None)]
        plan = [row[0] for row in db.execute("EXPLAIN " + sql).rows]
        assert plan[0] == "Scan emp (rows=3) pushed-filter: (pay > 1)"
        assert plan[1].endswith("ON (emp.dept = d.dept)")  # no pushed-filter
        assert plan[2] == "Filter: (floor IS NULL)"


# -- one expression traversal ------------------------------------------------
_EXPR_CLASSES = [
    cls for cls in vars(sql_ast).values()
    if isinstance(cls, type) and issubclass(cls, Expr) and cls is not Expr
]


def _build(cls):
    """An instance of ``cls`` whose sub-expressions are distinct column
    refs, and those refs in field order."""
    leaves = []

    def fill(hint):
        if hint is Expr:
            leaves.append(ColumnRef(f"c{len(leaves)}"))
            return leaves[-1]
        if hint is sql_ast.SelectQuery:
            return parse_sql("SELECT x FROM t")
        args = typing.get_args(hint)
        if typing.get_origin(hint) is tuple:
            if args[-1] is Ellipsis:
                return (fill(args[0]), fill(args[0]))
            return tuple(fill(arg) for arg in args)
        if typing.get_origin(hint) is typing.Union:
            return fill(next(arg for arg in args if arg is not type(None)))
        return {str: "x", bool: True}.get(hint, 1)

    hints = typing.get_type_hints(cls, vars(sql_ast))
    fields = {name: fill(hints[name]) for name in cls.__dataclass_fields__}
    return cls(**fields), leaves


@pytest.mark.parametrize("cls", _EXPR_CLASSES, ids=lambda cls: cls.__name__)
def test_traversals_cover_every_child(cls):
    expr, leaves = _build(cls)
    assert expr_children(expr) == tuple(leaves)
    assert map_children(expr, lambda child: child) == expr
    renamed = map_children(expr, lambda child: ColumnRef(child.name + "_"))
    assert expr_children(renamed) == tuple(
        ColumnRef(leaf.name + "_") for leaf in leaves
    )


def test_every_expression_class_is_covered():
    assert len(_EXPR_CLASSES) >= 12
