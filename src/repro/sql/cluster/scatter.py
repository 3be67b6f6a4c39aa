"""Distributed SELECT planning: scatter, partial aggregation, gather.

Given one parsed :class:`~repro.sql.ast.SelectQuery` and the cluster's
:class:`~repro.sql.cluster.partition.PartitionMap`, :func:`plan_select`
picks the cheapest strategy that is provably row-equivalent to running
the query on a single node holding all the data:

* **single-shard** — the WHERE clause pins the partition key to a
  literal, so every qualifying row lives on one shard; the query runs
  there verbatim.
* **scatter** — a non-aggregate query over one table (or tables joined
  on their co-partitioned keys, so every join match is shard-local).
  Each shard runs the query with ORDER BY/LIMIT/DISTINCT stripped and
  auxiliary ``__ok{i}`` sort-key columns appended; the coordinator
  concatenates, sorts with the executor's own comparator, deduplicates,
  and applies the limit.
* **partial-aggregate** — two-phase aggregation: each shard groups
  locally and emits partial states (``COUNT``/``SUM`` → ``SUM``,
  ``MIN``/``MAX`` → themselves, ``AVG`` → a SUM+COUNT pair); the
  coordinator loads the partials into a scratch ``__partials`` table
  and runs a rewritten merge query (HAVING/ORDER BY rewritten over the
  partial columns) through the ordinary executor.
* **gather** — the always-correct fallback: ship every table to the
  coordinator and run the original query unchanged on the union.
  Chosen whenever a construct's distributed form is not provably
  equivalent (subqueries, non-co-partitioned joins, DISTINCT
  aggregates, LIMIT without ORDER BY, non-column grouping, ...); the
  plan records the reason for observability.

The planner rewrites ASTs directly — no SQL re-parsing — so shard and
merge queries execute through :func:`repro.sql.executor.execute_select`
exactly as a single node would.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    Literal,
    OrderItem,
    SelectItem,
    SelectQuery,
    Star,
    TableRef,
    map_children,
    walk_expr,
)
from repro.sql.bind import BoundColumn, BoundQuery, bind_select
from repro.sql.catalog import Catalog
from repro.sql.cluster.partition import PartitionMap
from repro.sql.executor import _distinct, _sort_scored, _split_conjuncts
from repro.sql.schema import Column, TableSchema
from repro.sql.types import SQLType, Value, infer_type

SINGLE_SHARD = "single-shard"
SCATTER = "scatter"
PARTIAL_AGG = "partial-aggregate"
GATHER = "gather"

#: name of the coordinator-side scratch table holding partial states
PARTIAL_TABLE = "__partials"


@dataclass
class DistributedPlan:
    """How one SELECT runs across the shards, and how results merge."""

    strategy: str
    #: why the planner fell back to gather (empty for other strategies)
    reason: str = ""
    target_shard: Optional[int] = None
    shard_query: Optional[SelectQuery] = None
    merge_query: Optional[SelectQuery] = None
    partial_schema: Optional[TableSchema] = None
    #: where each ORDER BY key sits in a scatter shard row: an output
    #: column, or one of the ``__ok`` columns appended after them
    order_keys: List[int] = field(default_factory=list)
    #: count of auxiliary sort-key columns appended to the shard query
    n_aux: int = 0


class _Gather(Exception):
    """Internal: abandon the fast path and fall back to gather."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def plan_select(
    query: SelectQuery, pmap: PartitionMap, catalog: Catalog
) -> DistributedPlan:
    """Choose a distributed strategy for one SELECT.

    The query binds first (:func:`~repro.sql.bind.bind_select`), so a
    bad name raises here, before any shard runs.
    """
    try:
        return _plan(bind_select(query, catalog), pmap)
    except _Gather as fallback:
        return DistributedPlan(GATHER, reason=fallback.reason)


def _plan(bound: BoundQuery, pmap: PartitionMap) -> DistributedPlan:
    query = bound.query
    if bound.has_subquery:
        raise _Gather("contains a subquery")
    for slot in bound.slots:
        if not pmap.is_registered(slot.ref.name):
            raise _Gather(f"table {slot.ref.name!r} is not partitioned")
    if query.joins:
        _require_local_joins(bound, pmap)
    else:
        pruned = partition_key_equality(
            query.where, query.table.name, query.table.effective_name, pmap
        )
        if pruned is not None:
            value = pruned[0]
            return DistributedPlan(
                SINGLE_SHARD,
                target_shard=pmap.shard_of(query.table.name, value),
                shard_query=query,
            )
    if bound.aggregate:
        return _plan_partial_aggregate(bound)
    if query.having is not None:
        raise _Gather("HAVING without aggregation")
    if query.limit is not None and not query.order_by:
        raise _Gather("LIMIT without ORDER BY is scan-order-dependent")
    return _plan_scatter(bound)


# -- pruning ---------------------------------------------------------------
def partition_key_equality(
    where: Optional[Expr],
    table_name: str,
    effective_name: str,
    pmap: PartitionMap,
) -> Optional[Tuple[Value]]:
    """The literal the partition key is pinned to, if WHERE pins it.

    Returns a one-tuple holding the key value of a ``key = literal``
    conjunct (either operand order) — tupled so a pinned NULL is
    distinguishable from "not pinned" — or ``None`` when the statement
    cannot be pruned. A literal NULL still routes (to shard 0):
    ``= NULL`` matches nothing on any shard, so running it on one is as
    correct as running it on all. Shared by SELECT planning and the
    coordinator's single-shard UPDATE/DELETE routing.
    """
    key_column = pmap.key_column(table_name).lower()
    base = effective_name.lower()
    for conjunct in _split_conjuncts(where):
        if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
            continue
        sides = (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        )
        for column, literal in sides:
            if not (
                isinstance(column, ColumnRef) and isinstance(literal, Literal)
            ):
                continue
            if column.table is not None and column.table.lower() != base:
                continue
            if column.name.lower() == key_column:
                return (literal.value,)
    return None


# -- join locality ---------------------------------------------------------
def _require_local_joins(bound: BoundQuery, pmap: PartitionMap) -> None:
    """Verify every join matches rows only within one shard.

    A join is shard-local when it is an equi-join whose two sides are
    the partition keys of the joined table and of an earlier one
    (co-partitioning: equal keys hash to the same shard). Anything else
    — CROSS joins, non-equality conditions, joins on non-key columns —
    may need rows from two different shards and forces a gather.
    """

    def is_key(column: BoundColumn) -> bool:
        slot = bound.slots[column.slot]
        name = slot.schema.columns[column.index].name
        return name.lower() == pmap.key_column(slot.ref.name).lower()

    for slot, join in enumerate(bound.query.joins, start=1):
        if join.kind == "CROSS" or join.condition is None:
            raise _Gather("CROSS JOIN is never shard-local")
        condition = join.condition
        if not (
            isinstance(condition, BinaryOp)
            and condition.op == "="
            and isinstance(condition.left, ColumnRef)
            and isinstance(condition.right, ColumnRef)
        ):
            raise _Gather(f"join condition {condition.sql()} is not an equi-join")
        earlier, joined = sorted(
            (bound.columns[condition.left], bound.columns[condition.right]),
            key=lambda column: column.slot,
        )
        if joined.slot != slot or earlier.slot == slot:
            raise _Gather(
                f"join condition {condition.sql()} does not connect "
                f"{join.table.sql()} to an earlier table"
            )
        if not (is_key(earlier) and is_key(joined)):
            raise _Gather(
                f"join condition {condition.sql()} is not on the "
                "partition keys (tables are not co-partitioned)"
            )


# -- plain scatter ---------------------------------------------------------
def _plan_scatter(bound: BoundQuery) -> DistributedPlan:
    query = bound.query
    width = len(bound.outputs)
    aux_items: List[SelectItem] = []
    order_keys: List[int] = []
    for key in bound.order:
        if isinstance(key, int):
            # ORDER BY an output column/alias: its value is already in
            # every shard row; no auxiliary column needed.
            order_keys.append(key)
        else:
            order_keys.append(width + len(aux_items))
            aux_items.append(SelectItem(expr=key, alias=f"__ok{len(aux_items)}"))
    shard_query = dataclasses.replace(
        query,
        items=tuple(query.items) + tuple(aux_items),
        order_by=(),
        limit=None,
        distinct=False,
    )
    return DistributedPlan(
        SCATTER,
        shard_query=shard_query,
        order_keys=order_keys,
        n_aux=len(aux_items),
    )


def merge_scatter(
    plan: DistributedPlan,
    query: SelectQuery,
    results: List[Tuple[List[str], List[Tuple[Value, ...]]]],
) -> Tuple[List[str], List[Tuple[Value, ...]]]:
    """Concatenate shard results; sort, deduplicate, and limit globally."""
    columns = results[0][0]
    width = len(columns) - plan.n_aux
    keyed: List[Tuple[List[Value], Tuple[Value, ...]]] = [
        ([row[i] for i in plan.order_keys], row[:width] if plan.n_aux else row)
        for _, shard_rows in results
        for row in shard_rows
    ]
    if query.order_by:
        keyed = _sort_scored(keyed, query.order_by)
    merged = [projected for _, projected in keyed]
    if query.distinct:
        merged = _distinct(merged)
    if query.limit is not None:
        merged = merged[: query.limit]
    return columns[:width], merged


# -- two-phase aggregation -------------------------------------------------
def _plan_partial_aggregate(bound: BoundQuery) -> DistributedPlan:
    query = bound.query
    if query.distinct:
        raise _Gather("SELECT DISTINCT with aggregation")
    if any(isinstance(item.expr, Star) for item in query.items):
        raise _Gather("'*' cannot appear with aggregation")

    # Group keys become __g{i} columns of the partial table.
    group_columns: List[Column] = []
    group_refs: Dict[BoundColumn, ColumnRef] = {}
    for position, group_expr in enumerate(query.group_by):
        if not isinstance(group_expr, ColumnRef):
            raise _Gather(
                f"GROUP BY expression {group_expr.sql()} is not a column"
            )
        column = bound.columns[group_expr]
        group_columns.append(Column(f"__g{position}", column.sql_type))
        group_refs.setdefault(column, ColumnRef(f"__g{position}"))

    # Every distinct aggregate call decomposes into partial columns
    # plus a merge expression over them.
    shard_agg_items: List[SelectItem] = []
    agg_columns: List[Column] = []
    merge_exprs: Dict[str, Expr] = {}

    def numeric_sum_type(arg_type: SQLType) -> SQLType:
        return arg_type if arg_type in (SQLType.INT, SQLType.FLOAT) else SQLType.FLOAT

    def decompose(call: FuncCall) -> None:
        text = call.sql()
        if text in merge_exprs:
            return
        if call.distinct:
            raise _Gather(f"DISTINCT aggregate {text} is not decomposable")
        name = call.name.upper()
        if not (name == "COUNT" and len(call.args) == 1 and isinstance(call.args[0], Star)):
            if len(call.args) != 1:
                raise _Gather(f"aggregate {text} has an unexpected arity")
            arg = call.args[0]
            if isinstance(arg, ColumnRef):
                arg_type = bound.columns[arg].sql_type
            elif isinstance(arg, Literal):
                arg_type = infer_type(arg.value)
            else:
                raise _Gather(
                    f"aggregate argument {arg.sql()} is not a plain column"
                )
        position = len(merge_exprs)
        if name == "COUNT":
            alias = f"__a{position}"
            shard_agg_items.append(SelectItem(expr=call, alias=alias))
            agg_columns.append(Column(alias, SQLType.INT))
            merge_exprs[text] = FuncCall("SUM", (ColumnRef(alias),))
        elif name == "SUM":
            alias = f"__a{position}"
            shard_agg_items.append(SelectItem(expr=call, alias=alias))
            agg_columns.append(Column(alias, numeric_sum_type(arg_type)))
            merge_exprs[text] = FuncCall("SUM", (ColumnRef(alias),))
        elif name in ("MIN", "MAX"):
            alias = f"__a{position}"
            shard_agg_items.append(SelectItem(expr=call, alias=alias))
            agg_columns.append(Column(alias, arg_type))
            merge_exprs[text] = FuncCall(name, (ColumnRef(alias),))
        elif name == "AVG":
            # AVG does not distribute; ship a SUM+COUNT pair instead.
            # NULL sums divide to NULL, and a zero count implies a NULL
            # sum, so the division never sees 0 with a live numerator.
            sum_alias, count_alias = f"__a{position}s", f"__a{position}c"
            shard_agg_items.append(
                SelectItem(expr=FuncCall("SUM", call.args), alias=sum_alias)
            )
            shard_agg_items.append(
                SelectItem(expr=FuncCall("COUNT", call.args), alias=count_alias)
            )
            agg_columns.append(Column(sum_alias, SQLType.FLOAT))
            agg_columns.append(Column(count_alias, SQLType.INT))
            merge_exprs[text] = BinaryOp(
                "/",
                FuncCall("SUM", (ColumnRef(sum_alias),)),
                FuncCall("SUM", (ColumnRef(count_alias),)),
            )
        else:
            raise _Gather(f"unknown aggregate {text}")

    rewrite_sources: List[Expr] = list(bound.outputs)
    if query.having is not None:
        rewrite_sources.append(query.having)
    rewrite_sources.extend(key for key in bound.order if not isinstance(key, int))
    for source in rewrite_sources:
        for node in walk_expr(source):
            if isinstance(node, FuncCall) and node.is_aggregate:
                decompose(node)

    def rewrite(expr: Expr) -> Expr:
        if isinstance(expr, FuncCall) and expr.is_aggregate:
            return merge_exprs[expr.sql()]
        if isinstance(expr, ColumnRef):
            grouped = group_refs.get(bound.columns[expr])
            if grouped is None:
                raise _Gather(
                    f"column {expr.sql()} is neither grouped nor aggregated"
                )
            return grouped
        return map_children(expr, rewrite)

    merge_items = tuple(
        SelectItem(expr=rewrite(expr), alias=name)
        for expr, name in zip(bound.outputs, bound.names)
    )
    merge_having = (
        rewrite(query.having) if query.having is not None else None
    )
    # An ORDER BY that names an output names the same merge item.
    merge_order = tuple(
        order if isinstance(key, int)
        else OrderItem(expr=rewrite(key), descending=order.descending)
        for order, key in zip(query.order_by, bound.order)
    )

    shard_items = tuple(
        SelectItem(expr=expr, alias=f"__g{i}")
        for i, expr in enumerate(query.group_by)
    ) + tuple(shard_agg_items)
    shard_query = dataclasses.replace(
        query,
        items=shard_items,
        having=None,
        order_by=(),
        limit=None,
        distinct=False,
    )
    merge_query = SelectQuery(
        items=merge_items,
        table=TableRef(PARTIAL_TABLE),
        joins=(),
        where=None,
        group_by=tuple(
            ColumnRef(f"__g{i}") for i in range(len(query.group_by))
        ),
        having=merge_having,
        order_by=merge_order,
        limit=query.limit,
        distinct=False,
    )
    partial_schema = TableSchema(
        name=PARTIAL_TABLE, columns=group_columns + agg_columns
    )
    return DistributedPlan(
        PARTIAL_AGG,
        shard_query=shard_query,
        merge_query=merge_query,
        partial_schema=partial_schema,
    )
