"""AST rewriting: compile ``NL(col, 'desc')`` calls into IN lists."""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.analysis.findings import render_findings
from repro.analysis.sqlcheck import check_query
from repro.errors import ReproError
from repro.sql.ast import (
    ColumnRef,
    Expr,
    FuncCall,
    Literal,
    SelectQuery,
    map_children,
    walk_expr,
)
from repro.sql.catalog import Catalog

NL_FUNC = "NL"


class SemanticError(ReproError):
    """Raised for malformed NL(...) operator usage."""


def extract_nl_calls(expr: Optional[Expr]) -> List[FuncCall]:
    """All ``NL(column, 'description')`` calls inside an expression."""
    if expr is None:
        return []
    calls: List[FuncCall] = []
    for node in walk_expr(expr):
        if isinstance(node, FuncCall) and node.name.upper() == NL_FUNC:
            _validate(node)
            calls.append(node)
    return calls


def vet_rewritten(query: SelectQuery, catalog: Catalog) -> None:
    """Semantically validate a rewritten query before it executes.

    The NL-compilation step replaces predicates wholesale; running
    :func:`repro.analysis.sqlcheck.check_query` on the result catches
    invalid rewrites (unknown columns, type clashes) *before* the
    engine touches any rows, with findings in the error message.
    """
    findings = check_query(query, catalog)
    if findings:
        raise SemanticError(
            "rewritten query failed static validation:\n"
            + render_findings(findings)
        )


def _validate(call: FuncCall) -> None:
    if len(call.args) != 2:
        raise SemanticError("NL() takes exactly two arguments: NL(column, 'description')")
    if not isinstance(call.args[0], ColumnRef):
        raise SemanticError("the first argument of NL() must be a column")
    if not isinstance(call.args[1], Literal) or not isinstance(call.args[1].value, str):
        raise SemanticError("the second argument of NL() must be a string literal")


def nl_call_parts(call: FuncCall) -> Tuple[ColumnRef, str]:
    """Destructure a validated NL call into (column, description)."""
    column = call.args[0]
    description = call.args[1].value
    assert isinstance(column, ColumnRef) and isinstance(description, str)
    return column, description


def rewrite_expression(
    expr: Expr, replacement: Callable[[FuncCall], Expr]
) -> Expr:
    """Return a copy of ``expr`` with every NL call replaced.

    ``replacement`` maps each NL :class:`FuncCall` to the expression
    that should stand in for it (typically an :class:`InList`).
    """
    if isinstance(expr, FuncCall) and expr.name.upper() == NL_FUNC:
        return replacement(expr)
    return map_children(
        expr, lambda child: rewrite_expression(child, replacement)
    )
