"""Translate a parsed SELECT query into a linear plan of steps."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import CodexDBError
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    SelectQuery,
)
from repro.sql.parser import parse_sql


@dataclass(frozen=True)
class PlanStep:
    """One step of a synthesized program.

    ``kind`` is one of ``load``, ``join``, ``filter``, ``group``,
    ``project``, ``order``, ``limit``, ``distinct``; ``args`` carries the
    kind-specific payload.
    """

    kind: str
    args: Dict[str, object] = field(default_factory=dict)


def plan_query(sql: str) -> List[PlanStep]:
    """Parse ``sql`` and lower it into plan steps.

    Supports the engine's SELECT subset restricted to shapes CodexDB's
    code templates cover: one base table, INNER equi-joins, a WHERE
    tree, single-column GROUP BY with aggregates, ORDER BY, LIMIT and
    DISTINCT.
    """
    query = parse_sql(sql)
    if not isinstance(query, SelectQuery):
        raise CodexDBError("only SELECT statements can be synthesized")

    steps: List[PlanStep] = [
        PlanStep(kind="load", args={"table": query.table.name,
                                    "alias": query.table.effective_name})
    ]
    for join in query.joins:
        if join.kind != "INNER" or join.condition is None:
            raise CodexDBError(f"unsupported join kind {join.kind}")
        left_ref, right_ref = _equi_condition(join.condition)
        steps.append(
            PlanStep(
                kind="join",
                args={
                    "table": join.table.name,
                    "alias": join.table.effective_name,
                    "left_key": f"{left_ref.table}.{left_ref.name}",
                    "right_key": f"{right_ref.table}.{right_ref.name}",
                },
            )
        )
    if query.where is not None:
        steps.append(PlanStep(kind="filter", args={"predicate": query.where}))

    aggregates = [
        item for item in query.items
        if isinstance(item.expr, FuncCall) and item.expr.is_aggregate
    ]
    if query.group_by or aggregates:
        steps.append(
            PlanStep(
                kind="group",
                args={"keys": list(query.group_by), "items": list(query.items)},
            )
        )
        if query.order_by:
            # Aggregate queries order by output columns/aliases.
            steps.append(
                PlanStep(kind="order", args={"orders": list(query.order_by),
                                             "on_raw": False})
            )
    else:
        if query.order_by:
            # Plain queries order raw rows before projection, so sort
            # keys need not appear in the select list (argmax queries).
            steps.append(
                PlanStep(kind="order", args={"orders": list(query.order_by),
                                             "on_raw": True})
            )
        steps.append(PlanStep(kind="project", args={"items": list(query.items)}))

    if query.distinct:
        steps.append(PlanStep(kind="distinct"))
    if query.limit is not None:
        steps.append(PlanStep(kind="limit", args={"count": query.limit}))
    return steps


def _equi_condition(condition: Expr) -> Tuple[ColumnRef, ColumnRef]:
    if (
        isinstance(condition, BinaryOp)
        and condition.op == "="
        and isinstance(condition.left, ColumnRef)
        and isinstance(condition.right, ColumnRef)
        and condition.left.table is not None
        and condition.right.table is not None
    ):
        return condition.left, condition.right
    raise CodexDBError(
        f"join condition must be a qualified equality, got {condition.sql()}"
    )
