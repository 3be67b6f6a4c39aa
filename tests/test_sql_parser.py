"""Tests for the SQL lexer and parser."""

import ast
import dataclasses
import enum
from pathlib import Path

import pytest

import repro.sql.ast as sql_ast
from repro.errors import SQLSyntaxError
from repro.sql import parse_sql, tokenize_sql
from repro.sql.ast import (
    Between,
    BinaryOp,
    ColumnRef,
    CreateTable,
    FuncCall,
    InList,
    InsertInto,
    IsNull,
    Literal,
    SelectQuery,
    Star,
    UnaryOp,
)
from repro.sql.lexer import TokenKind
from repro.sql.types import SQLType


class TestLexer:
    def test_keywords_uppercased(self):
        tokens = tokenize_sql("select From WHERE")
        assert [t.text for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.kind is TokenKind.KEYWORD for t in tokens[:-1])

    def test_identifiers_keep_case(self):
        tokens = tokenize_sql("myTable my_col2")
        assert [t.text for t in tokens[:-1]] == ["myTable", "my_col2"]

    def test_numbers(self):
        tokens = tokenize_sql("42 3.14 .5")
        assert [t.text for t in tokens[:-1]] == ["42", "3.14", ".5"]
        assert all(t.kind is TokenKind.NUMBER for t in tokens[:-1])

    def test_string_with_escaped_quote(self):
        tokens = tokenize_sql("'it''s'")
        assert tokens[0].kind is TokenKind.STRING
        assert tokens[0].text == "it's"

    def test_unterminated_string_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize_sql("'oops")

    def test_operators_longest_match(self):
        tokens = tokenize_sql("<= <> != >=")
        assert [t.text for t in tokens[:-1]] == ["<=", "<>", "!=", ">="]

    def test_bad_character_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize_sql("SELECT @")

    def test_eof_token(self):
        assert tokenize_sql("")[-1].kind is TokenKind.EOF

    def test_quoted_identifier(self):
        tokens = tokenize_sql('"weird name"')
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].text == "weird name"


class TestParserSelect:
    def test_minimal(self):
        q = parse_sql("SELECT * FROM t")
        assert isinstance(q, SelectQuery)
        assert isinstance(q.items[0].expr, Star)
        assert q.table.name == "t"

    def test_projection_aliases(self):
        q = parse_sql("SELECT a AS x, b y, a + 1 FROM t")
        assert q.items[0].alias == "x"
        assert q.items[1].alias == "y"
        assert q.items[2].alias is None
        assert isinstance(q.items[2].expr, BinaryOp)

    def test_where_precedence(self):
        q = parse_sql("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
        # AND binds tighter than OR.
        assert isinstance(q.where, BinaryOp) and q.where.op == "OR"
        assert isinstance(q.where.right, BinaryOp) and q.where.right.op == "AND"

    def test_arithmetic_precedence(self):
        q = parse_sql("SELECT a + b * c FROM t")
        expr = q.items[0].expr
        assert expr.op == "+"
        assert isinstance(expr.right, BinaryOp) and expr.right.op == "*"

    def test_parenthesized(self):
        q = parse_sql("SELECT (a + b) * c FROM t")
        expr = q.items[0].expr
        assert expr.op == "*"
        assert isinstance(expr.left, BinaryOp) and expr.left.op == "+"

    def test_qualified_columns(self):
        q = parse_sql("SELECT t1.a FROM t t1")
        assert q.items[0].expr == ColumnRef(name="a", table="t1")
        assert q.table.alias == "t1"

    def test_join_clauses(self):
        q = parse_sql(
            "SELECT * FROM a JOIN b ON a.x = b.x "
            "LEFT JOIN c ON b.y = c.y CROSS JOIN d"
        )
        kinds = [j.kind for j in q.joins]
        assert kinds == ["INNER", "LEFT", "CROSS"]
        assert q.joins[2].condition is None

    def test_inner_join_keyword(self):
        q = parse_sql("SELECT * FROM a INNER JOIN b ON a.x = b.x")
        assert q.joins[0].kind == "INNER"

    def test_group_by_having(self):
        q = parse_sql(
            "SELECT dept, COUNT(*) FROM emp GROUP BY dept HAVING COUNT(*) > 2"
        )
        assert len(q.group_by) == 1
        assert isinstance(q.having, BinaryOp)

    def test_order_by_directions(self):
        q = parse_sql("SELECT a FROM t ORDER BY a DESC, b ASC, c")
        assert [o.descending for o in q.order_by] == [True, False, False]

    def test_limit(self):
        q = parse_sql("SELECT a FROM t LIMIT 5")
        assert q.limit == 5

    def test_limit_non_integer_raises(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("SELECT a FROM t LIMIT 5.5")

    def test_distinct(self):
        assert parse_sql("SELECT DISTINCT a FROM t").distinct

    def test_in_list(self):
        q = parse_sql("SELECT * FROM t WHERE a IN (1, 2, 3)")
        assert isinstance(q.where, InList)
        assert len(q.where.items) == 3

    def test_not_in(self):
        q = parse_sql("SELECT * FROM t WHERE a NOT IN (1)")
        assert isinstance(q.where, InList) and q.where.negated

    def test_between(self):
        q = parse_sql("SELECT * FROM t WHERE a BETWEEN 1 AND 10")
        assert isinstance(q.where, Between)

    def test_is_null_and_is_not_null(self):
        q = parse_sql("SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL")
        assert isinstance(q.where.left, IsNull) and not q.where.left.negated
        assert isinstance(q.where.right, IsNull) and q.where.right.negated

    def test_like(self):
        q = parse_sql("SELECT * FROM t WHERE name LIKE 'a%'")
        assert q.where.op == "LIKE"

    def test_not_like(self):
        q = parse_sql("SELECT * FROM t WHERE name NOT LIKE 'a%'")
        assert isinstance(q.where, UnaryOp) and q.where.op == "NOT"

    def test_aggregates(self):
        q = parse_sql("SELECT COUNT(*), SUM(x), AVG(x), MIN(x), MAX(x) FROM t")
        names = [item.expr.name for item in q.items]
        assert names == ["COUNT", "SUM", "AVG", "MIN", "MAX"]
        assert isinstance(q.items[0].expr.args[0], Star)

    def test_count_distinct(self):
        q = parse_sql("SELECT COUNT(DISTINCT x) FROM t")
        assert q.items[0].expr.distinct

    def test_case_when(self):
        q = parse_sql(
            "SELECT CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END FROM t"
        )
        expr = q.items[0].expr
        assert len(expr.branches) == 1
        assert expr.default == Literal("neg")

    def test_not_equal_normalized(self):
        q = parse_sql("SELECT * FROM t WHERE a != 1")
        assert q.where.op == "<>"

    def test_trailing_garbage_raises(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("SELECT a FROM t garbage garbage")

    def test_missing_from_raises(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("SELECT a WHERE x = 1")

    def test_sql_roundtrip_reparses(self):
        original = parse_sql(
            "SELECT dept, COUNT(*) AS n FROM emp e JOIN d ON e.did = d.id "
            "WHERE e.salary > 100 GROUP BY dept HAVING COUNT(*) > 1 "
            "ORDER BY n DESC LIMIT 3"
        )
        reparsed = parse_sql(original.sql())
        assert reparsed.sql() == original.sql()


class TestParserDDLDML:
    def test_create_table(self):
        stmt = parse_sql("CREATE TABLE t (id INT, name VARCHAR, score FLOAT)")
        assert isinstance(stmt, CreateTable)
        assert stmt.columns == (
            ("id", SQLType.INT), ("name", SQLType.TEXT), ("score", SQLType.FLOAT),
        )

    def test_insert_values(self):
        stmt = parse_sql("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        assert isinstance(stmt, InsertInto)
        assert len(stmt.rows) == 2

    def test_insert_with_columns(self):
        stmt = parse_sql("INSERT INTO t (id, name) VALUES (1, 'x')")
        assert stmt.columns == ("id", "name")

    def test_insert_negative_and_null(self):
        stmt = parse_sql("INSERT INTO t VALUES (-1, NULL)")
        assert isinstance(stmt.rows[0][0], UnaryOp)
        assert stmt.rows[0][1] == Literal(None)


# -- the statement cache -------------------------------------------------------
def _parse_sql_texts():
    """``(well_formed, malformed)``: the literal texts this file parses.

    A text passed to ``parse_sql`` inside ``with pytest.raises`` is
    malformed; every other one is a statement shape the parser accepts.
    """
    tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))

    def texts(node):
        return {
            call.args[0].value
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "parse_sql"
            and call.args
            and isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, str)
        }

    malformed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.With) and any(
            isinstance(item.context_expr, ast.Call)
            and getattr(item.context_expr.func, "attr", None) == "raises"
            for item in node.items
        ):
            malformed |= texts(node)
    return sorted(texts(tree) - malformed), sorted(malformed)


WELL_FORMED, MALFORMED = _parse_sql_texts()
#: statement kinds the tests above do not parse
WELL_FORMED += [
    "UPDATE t SET a = a + 1, b = 'x' WHERE k = 'y'",
    "DELETE FROM t WHERE k = 'y'",
    "CREATE INDEX i ON t (c)",
    "DROP TABLE t",
    "EXPLAIN SELECT a FROM t WHERE b IN (SELECT b FROM u WHERE c > 1)",
]
MALFORMED += ["SELECT @ FROM t", "SELECT 'oops FROM t"]


def _mutable_parts(value, path="statement"):
    """Paths under an AST value that hold anything but nodes, tuples and scalars."""
    if isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from _mutable_parts(item, f"{path}[{i}]")
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            yield from _mutable_parts(getattr(value, field.name), f"{path}.{field.name}")
    elif not isinstance(value, (str, int, float, bool, type(None), enum.Enum)):
        yield f"{path}: {type(value).__name__}"


class TestStatementCache:
    """``parse_sql`` hands every caller of one text the same AST."""

    def test_every_ast_node_class_is_frozen(self):
        nodes = [
            obj for obj in vars(sql_ast).values()
            if isinstance(obj, type) and dataclasses.is_dataclass(obj)
            and obj.__module__ == sql_ast.__name__
        ]
        assert len(nodes) > 20
        assert [cls.__name__ for cls in nodes if not cls.__dataclass_params__.frozen] == []

    def test_shapes_were_found(self):
        assert len(WELL_FORMED) >= 30 and len(MALFORMED) >= 5

    @pytest.mark.parametrize("sql", WELL_FORMED)
    def test_shared_ast_is_immutable(self, sql):
        statement = parse_sql(sql)
        assert list(_mutable_parts(statement)) == []
        assert parse_sql(sql) is statement

    @pytest.mark.parametrize("sql", MALFORMED)
    def test_malformed_text_raises_on_every_call(self, sql):
        messages = []
        for _ in range(3):
            with pytest.raises(SQLSyntaxError) as caught:
                parse_sql(sql)
            messages.append(str(caught.value))
        assert len(set(messages)) == 1
