"""Semantic validation of SQL queries against a catalog.

Generated SQL (text-to-SQL predictions, semantic-operator rewrites)
should be vetted before it runs. This pass reports every unknown table,
resolves every column reference through the engine's own binder
(:class:`repro.sql.bind.Scope`), and type-checks comparisons,
arithmetic, and aggregate arguments — all without touching a single
row. Unlike the engine, which stops at the first bad name, it reports
one finding per bad reference.

The SQL AST carries no source positions, so findings locate the problem
by quoting the offending fragment (``expr.sql()``) instead of a line
number.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.findings import Finding
from repro.errors import SQLBindError, SQLSyntaxError
from repro.sql.ast import (
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Literal,
    SelectQuery,
    Star,
    Statement,
    Subquery,
    UnaryOp,
)
from repro.sql.bind import Scope, Slot, order_position
from repro.sql.catalog import Catalog
from repro.sql.parser import parse_sql
from repro.sql.types import SQLType, infer_type

_NUMERIC = (SQLType.INT, SQLType.FLOAT)
_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")
_ARITHMETIC = ("+", "-", "*", "/")

_SCALAR_FUNC_TYPES = {
    "ABS": None,  # same as argument
    "LENGTH": SQLType.INT,
    "UPPER": SQLType.TEXT,
    "LOWER": SQLType.TEXT,
}

#: the semantic NL() operator is resolved by SemanticDatabase, not here
_SEMANTIC_FUNCS = ("NL",)


def check_sql(sql: str, catalog: Catalog) -> List[Finding]:
    """Parse ``sql`` and validate it; parse failures become findings."""
    try:
        statement = parse_sql(sql)
    except SQLSyntaxError as exc:
        return [Finding(rule="syntax", message=str(exc))]
    return check_statement(statement, catalog)


def check_statement(statement: Statement, catalog: Catalog) -> List[Finding]:
    """Validate a parsed statement (only SELECT has semantic checks)."""
    if isinstance(statement, SelectQuery):
        return check_query(statement, catalog)
    return []


def check_query(query: SelectQuery, catalog: Catalog) -> List[Finding]:
    """Validate one SELECT against the catalog; empty list means clean."""
    findings: List[Finding] = []
    slots: List[Slot] = []
    for ref in [query.table] + [join.table for join in query.joins]:
        table = catalog.resolve(ref.name)
        if table is None:
            findings.append(
                Finding(
                    rule="unknown-table",
                    message=f"no table {ref.name!r} in catalog "
                    f"(known: {catalog.names()})",
                )
            )
        else:
            slots.append(Slot(ref, table.schema))
    scope = Scope(slots)

    for join in query.joins:
        if join.condition is not None:
            findings += _check_expr(
                join.condition, scope, catalog, allow_aggregates=False
            )
    if query.where is not None:
        findings += _check_expr(
            query.where, scope, catalog, allow_aggregates=False
        )
    for expr in query.group_by:
        findings += _check_expr(expr, scope, catalog, allow_aggregates=False)
    if query.having is not None:
        findings += _check_expr(
            query.having, scope, catalog, allow_aggregates=True
        )
    for item in query.items:
        if isinstance(item.expr, Star):
            continue
        findings += _check_expr(
            item.expr, scope, catalog, allow_aggregates=True
        )

    try:
        _, names, _ = scope.outputs(query.items)
    except SQLBindError as error:  # ``t.*`` over a table not in FROM
        findings.append(_unbound(error))
        names = [item.output_name(i) for i, item in enumerate(query.items)]
    for order in query.order_by:
        if order_position(order.expr, names) is None:
            findings += _check_expr(
                order.expr, scope, catalog, allow_aggregates=True
            )
    return findings


def _unbound(error: SQLBindError) -> Finding:
    return Finding(rule=error.rule, message=str(error))


# -- expression checking ---------------------------------------------------
def _check_expr(
    expr: Expr,
    scope: Scope,
    catalog: Catalog,
    allow_aggregates: bool,
) -> List[Finding]:
    _, findings = _infer(expr, scope, catalog, allow_aggregates)
    return findings


def _infer(
    expr: Expr,
    scope: Scope,
    catalog: Catalog,
    allow_aggregates: bool,
    inside_aggregate: bool = False,
) -> Tuple[Optional[SQLType], List[Finding]]:
    """Infer an expression's type, collecting findings along the way.

    ``None`` as a type means "unknown" (NULL literal, unresolved column,
    unsupported construct) and suppresses downstream type checks, so one
    unknown column yields one finding, not a cascade.
    """
    if isinstance(expr, Literal):
        if expr.value is None:
            return None, []
        return infer_type(expr.value), []
    if isinstance(expr, ColumnRef):
        try:
            return scope.resolve(expr).sql_type, []
        except SQLBindError as error:
            return None, [_unbound(error)]
    if isinstance(expr, Star):
        return None, [
            Finding(
                rule="misplaced-star",
                message="'*' is only valid as a select item or in COUNT(*)",
            )
        ]
    if isinstance(expr, BinaryOp):
        return _infer_binary(expr, scope, catalog, allow_aggregates, inside_aggregate)
    if isinstance(expr, UnaryOp):
        operand_type, findings = _infer(
            expr.operand, scope, catalog, allow_aggregates, inside_aggregate
        )
        if expr.op == "NOT":
            return SQLType.BOOL, findings
        if operand_type is SQLType.TEXT:
            findings.append(
                Finding(
                    rule="type-mismatch",
                    message=f"unary '-' applied to TEXT in {expr.sql()}",
                )
            )
        return operand_type, findings
    if isinstance(expr, IsNull):
        _, findings = _infer(
            expr.operand, scope, catalog, allow_aggregates, inside_aggregate
        )
        return SQLType.BOOL, findings
    if isinstance(expr, InList):
        return _infer_in_list(expr, scope, catalog, allow_aggregates, inside_aggregate)
    if isinstance(expr, Between):
        operand_type, findings = _infer(
            expr.operand, scope, catalog, allow_aggregates, inside_aggregate
        )
        for bound in (expr.low, expr.high):
            bound_type, sub = _infer(
                bound, scope, catalog, allow_aggregates, inside_aggregate
            )
            findings += sub
            if _incompatible(operand_type, bound_type):
                findings.append(
                    Finding(
                        rule="type-mismatch",
                        message=f"BETWEEN bound {bound.sql()} has type "
                        f"{bound_type.value}, operand is "
                        f"{operand_type.value} in {expr.sql()}",
                    )
                )
        return SQLType.BOOL, findings
    if isinstance(expr, FuncCall):
        return _infer_func(expr, scope, catalog, allow_aggregates, inside_aggregate)
    if isinstance(expr, CaseWhen):
        findings = []
        result_type: Optional[SQLType] = None
        for condition, value in expr.branches:
            findings += _check_expr(condition, scope, catalog, allow_aggregates)
            value_type, sub = _infer(
                value, scope, catalog, allow_aggregates, inside_aggregate
            )
            findings += sub
            result_type = result_type or value_type
        if expr.default is not None:
            default_type, sub = _infer(
                expr.default, scope, catalog, allow_aggregates, inside_aggregate
            )
            findings += sub
            result_type = result_type or default_type
        return result_type, findings
    if isinstance(expr, Subquery):
        findings = check_query(expr.query, catalog)
        if len(expr.query.items) != 1:
            findings.append(
                Finding(
                    rule="subquery-shape",
                    message="scalar subquery must select exactly one column: "
                    + expr.sql(),
                )
            )
        return None, findings
    if isinstance(expr, InSubquery):
        _, findings = _infer(
            expr.operand, scope, catalog, allow_aggregates, inside_aggregate
        )
        findings += check_query(expr.query, catalog)
        return SQLType.BOOL, findings
    return None, []


def _infer_binary(
    expr: BinaryOp,
    scope: Scope,
    catalog: Catalog,
    allow_aggregates: bool,
    inside_aggregate: bool,
) -> Tuple[Optional[SQLType], List[Finding]]:
    left_type, findings = _infer(
        expr.left, scope, catalog, allow_aggregates, inside_aggregate
    )
    right_type, sub = _infer(
        expr.right, scope, catalog, allow_aggregates, inside_aggregate
    )
    findings += sub
    if expr.op in ("AND", "OR"):
        return SQLType.BOOL, findings
    if expr.op == "||":
        return SQLType.TEXT, findings
    if expr.op in _COMPARISONS:
        if _incompatible(left_type, right_type):
            findings.append(
                Finding(
                    rule="type-mismatch",
                    message=f"cannot compare {left_type.value} with "
                    f"{right_type.value} in {expr.sql()}",
                )
            )
        return SQLType.BOOL, findings
    if expr.op in _ARITHMETIC:
        for operand_type, operand in ((left_type, expr.left), (right_type, expr.right)):
            if operand_type is SQLType.TEXT:
                findings.append(
                    Finding(
                        rule="type-mismatch",
                        message=f"arithmetic on TEXT operand {operand.sql()} "
                        f"in {expr.sql()}",
                    )
                )
        if expr.op == "/" or SQLType.FLOAT in (left_type, right_type):
            return SQLType.FLOAT, findings
        if left_type is None or right_type is None:
            return None, findings
        return SQLType.INT, findings
    return None, findings


def _infer_in_list(
    expr: InList,
    scope: Scope,
    catalog: Catalog,
    allow_aggregates: bool,
    inside_aggregate: bool,
) -> Tuple[Optional[SQLType], List[Finding]]:
    operand_type, findings = _infer(
        expr.operand, scope, catalog, allow_aggregates, inside_aggregate
    )
    for item in expr.items:
        item_type, sub = _infer(
            item, scope, catalog, allow_aggregates, inside_aggregate
        )
        findings += sub
        if _incompatible(operand_type, item_type):
            findings.append(
                Finding(
                    rule="type-mismatch",
                    message=f"IN list item {item.sql()} has type "
                    f"{item_type.value}, operand is {operand_type.value}",
                )
            )
    return SQLType.BOOL, findings


def _infer_func(
    expr: FuncCall,
    scope: Scope,
    catalog: Catalog,
    allow_aggregates: bool,
    inside_aggregate: bool,
) -> Tuple[Optional[SQLType], List[Finding]]:
    name = expr.name.upper()
    if expr.is_aggregate:
        findings: List[Finding] = []
        if not allow_aggregates:
            findings.append(
                Finding(
                    rule="misplaced-aggregate",
                    message=f"aggregate {expr.sql()} is not allowed in "
                    "WHERE/ON/GROUP BY",
                )
            )
        if inside_aggregate:
            findings.append(
                Finding(
                    rule="nested-aggregate",
                    message=f"aggregate {expr.sql()} nested inside another "
                    "aggregate",
                )
            )
        if name == "COUNT" and len(expr.args) == 1 and isinstance(
            expr.args[0], Star
        ):
            return SQLType.INT, findings
        if len(expr.args) != 1:
            findings.append(
                Finding(
                    rule="aggregate-arity",
                    message=f"{name} takes exactly one argument, got "
                    f"{len(expr.args)}",
                )
            )
            return None, findings
        arg_type, sub = _infer(
            expr.args[0], scope, catalog, allow_aggregates, inside_aggregate=True
        )
        findings += sub
        if name in ("SUM", "AVG") and arg_type not in (None,) + _NUMERIC:
            findings.append(
                Finding(
                    rule="aggregate-type",
                    message=f"{name} requires a numeric argument, got "
                    f"{arg_type.value} in {expr.sql()}",
                )
            )
        if name == "COUNT":
            return SQLType.INT, findings
        if name == "AVG":
            return SQLType.FLOAT, findings
        return arg_type, findings
    if name in _SEMANTIC_FUNCS:
        findings = []
        if expr.args and isinstance(expr.args[0], ColumnRef):
            findings += _check_expr(expr.args[0], scope, catalog, False)
        return SQLType.BOOL, findings
    if name in _SCALAR_FUNC_TYPES:
        if len(expr.args) != 1:
            return None, [
                Finding(
                    rule="aggregate-arity",
                    message=f"{name} takes exactly one argument, got "
                    f"{len(expr.args)}",
                )
            ]
        arg_type, findings = _infer(
            expr.args[0], scope, catalog, allow_aggregates, inside_aggregate
        )
        declared = _SCALAR_FUNC_TYPES[name]
        return (declared if declared is not None else arg_type), findings
    findings = [
        Finding(
            rule="unknown-function",
            message=f"unknown function {name} in {expr.sql()}",
        )
    ]
    for arg in expr.args:
        if not isinstance(arg, Star):
            findings += _check_expr(arg, scope, catalog, allow_aggregates)
    return None, findings


def _incompatible(
    left: Optional[SQLType], right: Optional[SQLType]
) -> bool:
    """True only when both types are known and clearly clash.

    INT and FLOAT mix freely; BOOL compares with numerics (SQLite-style
    0/1); TEXT never mixes with numerics.
    """
    if left is None or right is None or left is right:
        return False
    if left is SQLType.TEXT or right is SQLType.TEXT:
        return True
    return False
