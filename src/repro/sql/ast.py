"""Abstract syntax tree for the supported SQL dialect."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple, Union

from repro.sql.types import SQLType, Value


# -- expressions -------------------------------------------------------------
class Expr:
    """Base class of all expression nodes."""

    def sql(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: number, string, boolean, or NULL."""

    value: Value

    def sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A (possibly table-qualified) column reference."""

    name: str
    table: Optional[str] = None

    def sql(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expr):
    """``*`` (or ``t.*``) in a select list or COUNT(*)."""

    table: Optional[str] = None

    def sql(self) -> str:
        return f"{self.table}.*" if self.table else "*"


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Infix operation: arithmetic, comparison, AND/OR, LIKE."""

    op: str
    left: Expr
    right: Expr

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Prefix operation: NOT, unary minus."""

    op: str
    operand: Expr

    def sql(self) -> str:
        if self.op.upper() == "NOT":
            return f"(NOT {self.operand.sql()})"
        return f"({self.op}{self.operand.sql()})"


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False

    def sql(self) -> str:
        middle = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.sql()} {middle})"


@dataclass(frozen=True)
class InList(Expr):
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: Expr
    items: Tuple[Expr, ...]
    negated: bool = False

    def sql(self) -> str:
        items = ", ".join(item.sql() for item in self.items)
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.sql()} {keyword} ({items}))"


@dataclass(frozen=True)
class Between(Expr):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def sql(self) -> str:
        keyword = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"({self.operand.sql()} {keyword} {self.low.sql()} AND {self.high.sql()})"


@dataclass(frozen=True)
class FuncCall(Expr):
    """A function call; aggregates are COUNT/SUM/AVG/MIN/MAX."""

    name: str
    args: Tuple[Expr, ...]
    distinct: bool = False

    AGGREGATES = ("COUNT", "SUM", "AVG", "MIN", "MAX")

    @property
    def is_aggregate(self) -> bool:
        return self.name.upper() in self.AGGREGATES

    def sql(self) -> str:
        inner = ", ".join(a.sql() for a in self.args)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name.upper()}({inner})"


@dataclass(frozen=True)
class Subquery(Expr):
    """A parenthesized scalar subquery: ``(SELECT agg FROM ...)``.

    Only uncorrelated subqueries are supported; they are materialized
    to a literal before the outer query runs.
    """

    query: "SelectQuery"

    def sql(self) -> str:
        return f"({self.query.sql()})"


@dataclass(frozen=True)
class InSubquery(Expr):
    """``expr [NOT] IN (SELECT col FROM ...)`` (uncorrelated)."""

    operand: Expr
    query: "SelectQuery"
    negated: bool = False

    def sql(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.sql()} {keyword} ({self.query.sql()}))"


@dataclass(frozen=True)
class CaseWhen(Expr):
    """``CASE WHEN cond THEN value [...] [ELSE value] END``."""

    branches: Tuple[Tuple[Expr, Expr], ...]
    default: Optional[Expr] = None

    def sql(self) -> str:
        parts = ["CASE"]
        for cond, value in self.branches:
            parts.append(f"WHEN {cond.sql()} THEN {value.sql()}")
        if self.default is not None:
            parts.append(f"ELSE {self.default.sql()}")
        parts.append("END")
        return " ".join(parts)


def expr_children(expr: Expr) -> Tuple[Expr, ...]:
    """The direct sub-expressions of a node.

    Subquery bodies are *not* treated as children — they carry their own
    scope, so analyses must recurse into them explicitly.
    """
    if isinstance(expr, BinaryOp):
        return (expr.left, expr.right)
    if isinstance(expr, (UnaryOp, IsNull)):
        return (expr.operand,)
    if isinstance(expr, InList):
        return (expr.operand,) + expr.items
    if isinstance(expr, Between):
        return (expr.operand, expr.low, expr.high)
    if isinstance(expr, FuncCall):
        return expr.args
    if isinstance(expr, CaseWhen):
        children: List[Expr] = []
        for condition, value in expr.branches:
            children.append(condition)
            children.append(value)
        if expr.default is not None:
            children.append(expr.default)
        return tuple(children)
    if isinstance(expr, InSubquery):
        return (expr.operand,)
    return ()


def walk_expr(expr: Expr):
    """Yield ``expr`` and every nested sub-expression, depth-first."""
    yield expr
    for child in expr_children(expr):
        yield from walk_expr(child)


def map_children(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """A copy of ``expr`` with each child of :func:`expr_children`
    replaced by ``fn(child)``; a leaf comes back as it is.

    Subquery bodies are left alone, as in :func:`expr_children`.
    """
    if isinstance(expr, BinaryOp):
        return replace(expr, left=fn(expr.left), right=fn(expr.right))
    if isinstance(expr, (UnaryOp, IsNull, InSubquery)):
        return replace(expr, operand=fn(expr.operand))
    if isinstance(expr, InList):
        return replace(
            expr, operand=fn(expr.operand), items=tuple(fn(i) for i in expr.items)
        )
    if isinstance(expr, Between):
        return replace(
            expr, operand=fn(expr.operand), low=fn(expr.low), high=fn(expr.high)
        )
    if isinstance(expr, FuncCall):
        return replace(expr, args=tuple(fn(arg) for arg in expr.args))
    if isinstance(expr, CaseWhen):
        return CaseWhen(
            branches=tuple((fn(c), fn(v)) for c, v in expr.branches),
            default=fn(expr.default) if expr.default is not None else None,
        )
    return expr


# -- query structure ------------------------------------------------------------
@dataclass(frozen=True)
class SelectItem:
    """One output column: an expression with an optional alias."""

    expr: Expr
    alias: Optional[str] = None

    def sql(self) -> str:
        return f"{self.expr.sql()} AS {self.alias}" if self.alias else self.expr.sql()

    def output_name(self, position: int) -> str:
        """The name this item contributes to the result schema."""
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        return f"col{position}"


@dataclass(frozen=True)
class TableRef:
    """A table in FROM/JOIN, with an optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def effective_name(self) -> str:
        return self.alias or self.name

    def sql(self) -> str:
        return f"{self.name} AS {self.alias}" if self.alias else self.name


@dataclass(frozen=True)
class JoinClause:
    """One JOIN: kind is INNER, LEFT, or CROSS."""

    kind: str
    table: TableRef
    condition: Optional[Expr] = None

    def sql(self) -> str:
        if self.kind == "CROSS":
            return f"CROSS JOIN {self.table.sql()}"
        return f"{self.kind} JOIN {self.table.sql()} ON {self.condition.sql()}"


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    expr: Expr
    descending: bool = False

    def sql(self) -> str:
        return f"{self.expr.sql()} {'DESC' if self.descending else 'ASC'}"


@dataclass(frozen=True)
class SelectQuery:
    """A full SELECT statement."""

    items: Tuple[SelectItem, ...]
    table: TableRef
    joins: Tuple[JoinClause, ...] = ()
    where: Optional[Expr] = None
    group_by: Tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    distinct: bool = False

    def sql(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(item.sql() for item in self.items))
        parts.append(f"FROM {self.table.sql()}")
        for join in self.joins:
            parts.append(join.sql())
        if self.where is not None:
            parts.append(f"WHERE {self.where.sql()}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(e.sql() for e in self.group_by))
        if self.having is not None:
            parts.append(f"HAVING {self.having.sql()}")
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(o.sql() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)


@dataclass(frozen=True)
class CreateTable:
    """``CREATE TABLE name (col type, ...)``."""

    name: str
    columns: Tuple[Tuple[str, SQLType], ...]

    def sql(self) -> str:
        cols = ", ".join(f"{n} {t.value}" for n, t in self.columns)
        return f"CREATE TABLE {self.name} ({cols})"


@dataclass(frozen=True)
class InsertInto:
    """``INSERT INTO name [(cols)] VALUES (...), (...)``."""

    name: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[Expr, ...], ...]

    def sql(self) -> str:
        cols = f" ({', '.join(self.columns)})" if self.columns else ""
        rows = ", ".join(
            "(" + ", ".join(v.sql() for v in row) + ")" for row in self.rows
        )
        return f"INSERT INTO {self.name}{cols} VALUES {rows}"


@dataclass(frozen=True)
class UpdateTable:
    """``UPDATE name SET col = expr [, ...] [WHERE expr]``."""

    name: str
    assignments: Tuple[Tuple[str, Expr], ...]
    where: Optional[Expr] = None

    def sql(self) -> str:
        sets = ", ".join(f"{col} = {expr.sql()}" for col, expr in self.assignments)
        where = f" WHERE {self.where.sql()}" if self.where is not None else ""
        return f"UPDATE {self.name} SET {sets}{where}"


@dataclass(frozen=True)
class DeleteFrom:
    """``DELETE FROM name [WHERE expr]``."""

    name: str
    where: Optional[Expr] = None

    def sql(self) -> str:
        where = f" WHERE {self.where.sql()}" if self.where is not None else ""
        return f"DELETE FROM {self.name}{where}"


@dataclass(frozen=True)
class CreateIndex:
    """``CREATE INDEX name ON table (column)`` — a hash index."""

    index_name: str
    table: str
    column: str

    def sql(self) -> str:
        return f"CREATE INDEX {self.index_name} ON {self.table} ({self.column})"


@dataclass(frozen=True)
class DropTable:
    """``DROP TABLE name``."""

    name: str

    def sql(self) -> str:
        return f"DROP TABLE {self.name}"


@dataclass(frozen=True)
class ExplainQuery:
    """``EXPLAIN <select>`` — returns the plan instead of rows."""

    query: "SelectQuery"

    def sql(self) -> str:
        return f"EXPLAIN {self.query.sql()}"


Statement = Union[
    SelectQuery, CreateTable, InsertInto, UpdateTable, DeleteFrom, DropTable,
    ExplainQuery, CreateIndex,
]
