"""Query execution: joins, filtering, grouping, ordering, projection.

The executor materializes intermediate results as lists of
:class:`~repro.sql.eval.RowEnv` bindings. Two optimizations can be
toggled (the engine ablation benchmark flips them):

Every SELECT binds its names first (:mod:`repro.sql.bind`): output
names, star columns, join sides and pushdown all read the bound query.

* **predicate pushdown** — WHERE conjuncts that reference a single
  table are applied before joins (never to the right side of a LEFT
  JOIN, see :func:`place_conjuncts`), and a ``col = literal`` conjunct over
  an indexed column is answered by the hash index (for SELECT, UPDATE
  and DELETE alike, through :func:`candidate_positions`);
* **hash joins** — INNER equi-joins build a hash table on the join key
  instead of running a nested loop.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SQLAnalysisError, SQLExecutionError
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    JoinClause,
    Literal,
    OrderItem,
    SelectItem,
    SelectQuery,
    Star,
    Subquery,
    map_children,
)
from repro.sql.bind import BoundQuery, Slot, bind_select
from repro.sql.catalog import Catalog
from repro.sql.eval import RowEnv, compare, evaluate
from repro.sql.table import Table
from repro.sql.types import Value, coerce


@dataclass
class ExecutorOptions:
    """Execution knobs (flipped by the engine-ablation benchmark)."""

    predicate_pushdown: bool = True
    hash_joins: bool = True


@dataclass
class ExecutionStats:
    """Counters describing the work one query performed."""

    rows_scanned: int = 0
    join_probes: int = 0
    index_lookups: int = 0


def execute_select(
    query: SelectQuery,
    catalog: Catalog,
    options: Optional[ExecutorOptions] = None,
    stats: Optional[ExecutionStats] = None,
) -> Tuple[List[str], List[Tuple[Value, ...]]]:
    """Run a SELECT; returns (column names, result rows).

    Names bind first (:func:`~repro.sql.bind.bind_select`), so an
    unknown or ambiguous name raises before any row is read.
    """
    options = options or ExecutorOptions()
    stats = stats if stats is not None else ExecutionStats()

    bound = bind_select(query, catalog)
    if bound.has_subquery:
        query = _materialize_subqueries(query, catalog, options, stats)
        bound = bind_select(query, catalog)
    conjuncts = _split_conjuncts(query.where)
    placement = place_conjuncts(bound, conjuncts, options)

    # FROM: bind the base table — through a hash index when an equality
    # conjunct targets an indexed column, else a full scan.
    base = bound.slots[0]
    table = catalog.get(base.ref.name)
    positions, probed = candidate_positions(
        table, base.name, query.where, options, stats
    )
    rows = _filter(
        _bind_rows(table, base.name, positions), conjuncts, placement, 0, probed
    )

    # JOINs, applied left to right.
    for slot, join in enumerate(query.joins, start=1):
        right = catalog.get(join.table.name)
        stats.rows_scanned += len(right.rows)
        right_rows = _filter(
            _bind_rows(right, bound.slots[slot].name, range(len(right.rows))),
            conjuncts, placement, slot,
        )
        rows = _join(rows, right_rows, bound, slot, options, stats)

    # Remaining WHERE conjuncts.
    rows = _filter(rows, conjuncts, placement, None)

    if bound.aggregate:
        # _execute_aggregate applies HAVING and ORDER BY internally.
        result = _execute_aggregate(bound, rows)
    else:
        if query.having is not None:
            raise SQLAnalysisError("HAVING requires GROUP BY or aggregates")
        result = _execute_plain(bound, rows)
    if query.distinct:
        # Sorting happened first, and dedup is stable, so order survives.
        result = _distinct(result)
    if query.limit is not None:
        result = result[: query.limit]
    return list(bound.names), result


def _materialize_subqueries(
    query: SelectQuery,
    catalog: Catalog,
    options: ExecutorOptions,
    stats: ExecutionStats,
) -> SelectQuery:
    """Evaluate uncorrelated subqueries and splice their results in.

    A :class:`Subquery` becomes a :class:`Literal` (its 1x1 result); an
    :class:`InSubquery` becomes an :class:`InList` over the inner
    query's single output column.
    """

    def transform(expr: Expr) -> Expr:
        if isinstance(expr, Subquery):
            columns, rows = execute_select(expr.query, catalog, options, stats)
            if len(columns) != 1 or len(rows) != 1:
                raise SQLAnalysisError(
                    "a scalar subquery must return exactly one row and column, "
                    f"got {len(rows)}x{len(columns)}"
                )
            return Literal(rows[0][0])
        if isinstance(expr, InSubquery):
            columns, rows = execute_select(expr.query, catalog, options, stats)
            if len(columns) != 1:
                raise SQLAnalysisError(
                    "an IN subquery must return exactly one column, "
                    f"got {len(columns)}"
                )
            return InList(
                operand=transform(expr.operand),
                items=tuple(Literal(row[0]) for row in rows),
                negated=expr.negated,
            )
        return map_children(expr, transform)

    return dataclasses.replace(
        query,
        items=tuple(
            SelectItem(expr=transform(item.expr), alias=item.alias)
            for item in query.items
        ),
        where=transform(query.where) if query.where is not None else None,
        having=transform(query.having) if query.having is not None else None,
    )


def place_conjuncts(
    bound: BoundQuery, conjuncts: Sequence[Expr], options: ExecutorOptions
) -> List[Optional[int]]:
    """The FROM slot whose rows each WHERE conjunct filters before the joins.

    With pushdown on, a conjunct that reads one slot alone filters that
    slot's rows as they are scanned. Every other conjunct gets None and
    filters the joined rows. The right side of a LEFT JOIN takes no
    conjunct: the WHERE must see the NULLs that unmatched rows are
    padded with, so ``b.w IS NULL`` keeps exactly those rows and
    ``b.w = 5`` drops them. :func:`execute_select` and
    :func:`explain_plan` both follow this placement.
    """
    if not options.predicate_pushdown:
        return [None] * len(conjuncts)
    nullable = {
        slot for slot, join in enumerate(bound.query.joins, start=1)
        if join.kind == "LEFT"
    }
    placement: List[Optional[int]] = []
    for conjunct in conjuncts:
        slots = bound.slots_of(conjunct)
        alone = len(slots) == 1 and not slots & nullable
        placement.append(min(slots) if alone else None)
    return placement


def _filter(
    rows: List[RowEnv],
    conjuncts: Sequence[Expr],
    placement: Sequence[Optional[int]],
    slot: Optional[int],
    skip: Optional[int] = None,
) -> List[RowEnv]:
    """Keep the rows that every conjunct placed at ``slot`` (but the
    ``skip``-th, which an index probe already applied) holds for."""
    for index, (conjunct, target) in enumerate(zip(conjuncts, placement)):
        if target == slot and index != skip:
            rows = [env for env in rows if evaluate(conjunct, env) is True]
    return rows


def explain_plan(
    query: SelectQuery,
    catalog: Catalog,
    options: Optional[ExecutorOptions] = None,
) -> List[str]:
    """Describe the execution strategy for a SELECT (the EXPLAIN output):
    the same conjunct placement and join algorithms as
    :func:`execute_select`."""
    options = options or ExecutorOptions()
    bound = bind_select(query, catalog)
    conjuncts = _split_conjuncts(query.where)
    placement = place_conjuncts(bound, conjuncts, options)

    def placed(slot: Optional[int]) -> str:
        return " AND ".join(
            c.sql() for c, target in zip(conjuncts, placement) if target == slot
        )

    def filtered(line: str, slot: int) -> str:
        pushed = placed(slot)
        return f"{line} pushed-filter: {pushed}" if pushed else line

    base = query.table
    lines = [
        filtered(f"Scan {base.sql()} (rows={len(catalog.get(base.name))})", 0)
    ]
    for slot, join in enumerate(query.joins, start=1):
        if join.kind == "CROSS":
            algorithm = "cross product"
        elif options.hash_joins and _hash_keys(bound, slot) is not None:
            algorithm = "hash join"
        else:
            algorithm = "nested-loop join"
        line = f"{join.kind} {algorithm} with {join.table.sql()}"
        if join.condition is not None:
            line += f" ON {join.condition.sql()}"
        lines.append(filtered(line, slot))

    residual = placed(None)
    if residual:
        lines.append(f"Filter: {residual}")
    if bound.aggregate:
        keys = ", ".join(e.sql() for e in query.group_by) or "(global)"
        lines.append(f"Aggregate: group by {keys}")
        if query.having is not None:
            lines.append(f"Having: {query.having.sql()}")
    lines.append(
        "Project: " + ", ".join(item.sql() for item in query.items)
    )
    if query.order_by:
        lines.append("Sort: " + ", ".join(o.sql() for o in query.order_by))
    if query.distinct:
        lines.append("Distinct")
    if query.limit is not None:
        lines.append(f"Limit: {query.limit}")
    return lines


# -- scanning and joining --------------------------------------------------
def bind_row(name: str, column_names: List[str], row: Tuple[Value, ...]) -> RowEnv:
    """Bind one stored row under table name ``name``."""
    env = RowEnv()
    for column, value in zip(column_names, row):
        env.bind(name, column, value)
    return env


def _bind_rows(table: Table, name: str, positions: Sequence[int]) -> List[RowEnv]:
    column_names = table.schema.column_names
    return [bind_row(name, column_names, table.rows[p]) for p in positions]


def candidate_positions(
    table: Table,
    name: str,
    where: Optional[Expr],
    options: ExecutorOptions,
    stats: ExecutionStats,
) -> Tuple[Sequence[int], Optional[int]]:
    """Row positions of ``table`` (bound as ``name``) that may satisfy ``where``.

    With predicate pushdown on, the first top-level ``col = literal``
    conjunct over an indexed column is answered by the hash index, and
    its position among the WHERE's conjuncts comes back as the second
    element: every returned row satisfies it. Otherwise all positions
    come back with ``None``. Callers still evaluate the other conjuncts.
    """
    if options.predicate_pushdown:
        for index, conjunct in enumerate(_split_conjuncts(where)):
            positions = _index_probe(conjunct, name, table)
            if positions is not None:
                stats.index_lookups += 1
                stats.rows_scanned += len(positions)
                return positions, index
    stats.rows_scanned += len(table.rows)
    return range(len(table.rows)), None


def _index_probe(conjunct: Expr, name: str, table: Table) -> Optional[List[int]]:
    """Positions the hash index holds for ``col = literal`` (either order)
    over an indexed column of ``table``; None for any other conjunct.

    The literal is coerced through the column type so it hashes like the
    stored values (FLOAT columns probed with integer literals). A literal
    the column type cannot hold exactly (``int_col = 1.5``) matches no
    row; one that does not compare with the column at all
    (``int_col = 'abc'``) gives None, so the scan raises the error an
    unindexed table would.
    """
    if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
        return None
    for column_ref, literal in (
        (conjunct.left, conjunct.right), (conjunct.right, conjunct.left)
    ):
        if isinstance(column_ref, ColumnRef) and isinstance(literal, Literal):
            break
    else:
        return None
    if literal.value is None or (
        column_ref.table is not None and column_ref.table.lower() != name.lower()
    ):
        return None
    if not (table.schema.has_column(column_ref.name) and table.has_index(column_ref.name)):
        return None
    try:
        probe = coerce(literal.value, table.schema.column(column_ref.name).sql_type)
        exact = compare("=", probe, literal.value)
    except SQLExecutionError:
        return None
    return table.index_lookup(column_ref.name, probe) if exact else []


def _join(
    left: List[RowEnv],
    right: List[RowEnv],
    bound: BoundQuery,
    slot: int,
    options: ExecutorOptions,
    stats: ExecutionStats,
) -> List[RowEnv]:
    """Join the rows so far with those of FROM slot ``slot``."""
    join = bound.query.joins[slot - 1]
    if join.kind == "CROSS":
        return [l.merged_with(r) for l in left for r in right]
    keys = _hash_keys(bound, slot) if options.hash_joins else None
    if keys is not None:
        return _hash_join(left, right, keys, stats)
    return _nested_loop_join(left, right, join, stats, bound.slots[slot])


def _nested_loop_join(
    left: List[RowEnv],
    right: List[RowEnv],
    join: JoinClause,
    stats: ExecutionStats,
    right_slot: Slot,
) -> List[RowEnv]:
    # NULLs for every right-side column, from the schema, so the LEFT
    # JOIN padding is right even when the right side has no rows.
    nulls = bind_row(
        right_slot.name,
        right_slot.schema.column_names,
        (None,) * len(right_slot.schema),
    )
    out: List[RowEnv] = []
    for left_env in left:
        matched = False
        for right_env in right:
            stats.join_probes += 1
            merged = left_env.merged_with(right_env)
            if evaluate(join.condition, merged) is True:
                out.append(merged)
                matched = True
        if join.kind == "LEFT" and not matched:
            out.append(left_env.merged_with(nulls))
    return out


def _hash_keys(
    bound: BoundQuery, slot: int
) -> Optional[Tuple[ColumnRef, ColumnRef]]:
    """(probe, build) columns of an INNER equi-join ``x = y`` where one
    side reads the joined slot and the other an earlier one; None when
    the join at ``slot`` is not such a join."""
    join = bound.query.joins[slot - 1]
    condition = join.condition
    if not (
        join.kind == "INNER"
        and isinstance(condition, BinaryOp)
        and condition.op == "="
        and isinstance(condition.left, ColumnRef)
        and isinstance(condition.right, ColumnRef)
    ):
        return None
    left_slot = bound.columns[condition.left].slot
    right_slot = bound.columns[condition.right].slot
    if right_slot == slot and left_slot < slot:
        return condition.left, condition.right
    if left_slot == slot and right_slot < slot:
        return condition.right, condition.left
    return None


def _hash_join(
    left: List[RowEnv],
    right: List[RowEnv],
    keys: Tuple[ColumnRef, ColumnRef],
    stats: ExecutionStats,
) -> List[RowEnv]:
    probe_ref, build_ref = keys
    buckets: Dict[Value, List[RowEnv]] = {}
    for env in right:
        key = evaluate(build_ref, env)
        if key is None:
            continue  # NULL never matches in an equi-join
        buckets.setdefault(key, []).append(env)

    out: List[RowEnv] = []
    for env in left:
        key = evaluate(probe_ref, env)
        if key is None:
            continue
        for right_env in buckets.get(key, ()):
            stats.join_probes += 1
            out.append(env.merged_with(right_env))
    return out


# -- WHERE handling --------------------------------------------------------
def _split_conjuncts(where: Optional[Expr]) -> List[Expr]:
    """Flatten a WHERE tree into top-level AND conjuncts."""
    if where is None:
        return []
    if isinstance(where, BinaryOp) and where.op == "AND":
        return _split_conjuncts(where.left) + _split_conjuncts(where.right)
    return [where]


# -- projection ----------------------------------------------------------------
def _execute_plain(bound: BoundQuery, rows: List[RowEnv]) -> List[Tuple[Value, ...]]:
    result = [tuple(evaluate(expr, env) for expr in bound.outputs) for env in rows]
    if not bound.order:
        return result
    keyed = [
        (_order_key(bound, projected, lambda expr: evaluate(expr, env)), projected)
        for env, projected in zip(rows, result)
    ]
    return [projected for _, projected in _sort_scored(keyed, bound.query.order_by)]


def _order_key(
    bound: BoundQuery, projected: Tuple[Value, ...], value_of
) -> List[Value]:
    """A row's ORDER BY values: an output column's value, or ``value_of``
    the key expression."""
    return [
        projected[key] if isinstance(key, int) else value_of(key)
        for key in bound.order
    ]


# -- aggregation ---------------------------------------------------------------
def _execute_aggregate(
    bound: BoundQuery, rows: List[RowEnv]
) -> List[Tuple[Value, ...]]:
    query = bound.query
    if any(isinstance(item.expr, Star) for item in query.items):
        raise SQLAnalysisError("'*' cannot appear with aggregation")
    groups: Dict[Tuple[Value, ...], List[RowEnv]] = {}
    if query.group_by:
        for env in rows:
            key = tuple(evaluate(g, env) for g in query.group_by)
            groups.setdefault(key, []).append(env)
    else:
        groups[()] = rows  # global aggregate; one group even if empty

    scored: List[Tuple[List[Value], Tuple[Value, ...]]] = []
    for group_rows in groups.values():
        representative = group_rows[0] if group_rows else RowEnv()

        def value_of(expr: Expr) -> Value:
            return _eval_aggregate_expr(expr, group_rows, representative)

        if query.having is not None and value_of(query.having) is not True:
            continue
        projected = tuple(value_of(expr) for expr in bound.outputs)
        scored.append((_order_key(bound, projected, value_of), projected))

    if query.order_by:
        scored = _sort_scored(scored, query.order_by)
    return [projected for _, projected in scored]


def _eval_aggregate_expr(
    expr: Expr, group_rows: List[RowEnv], representative: RowEnv
) -> Value:
    """Evaluate an expression over one group: each aggregate call folds
    to its value over the group, and a bare column reads the
    representative row (per SQL it is a group key, so members agree)."""

    def fold(node: Expr) -> Expr:
        if isinstance(node, FuncCall) and node.is_aggregate:
            return Literal(_compute_aggregate(node, group_rows))
        return map_children(node, fold)

    return evaluate(fold(expr), representative)


def _compute_aggregate(call: FuncCall, group_rows: List[RowEnv]) -> Value:
    name = call.name.upper()
    if name == "COUNT" and len(call.args) == 1 and isinstance(call.args[0], Star):
        return len(group_rows)
    if len(call.args) != 1:
        raise SQLAnalysisError(f"{name} takes exactly one argument")
    values = [evaluate(call.args[0], env) for env in group_rows]
    values = [v for v in values if v is not None]
    if call.distinct:
        seen: List[Value] = []
        for value in values:
            if value not in seen:
                seen.append(value)
        values = seen
    if name == "COUNT":
        return len(values)
    if not values:
        return None  # SUM/AVG/MIN/MAX of an empty set is NULL
    if name == "SUM":
        return sum(_coerce_num(v) for v in values)
    if name == "AVG":
        return sum(_coerce_num(v) for v in values) / len(values)
    if name == "MIN":
        return min(values)  # type: ignore[type-var]
    if name == "MAX":
        return max(values)  # type: ignore[type-var]
    raise SQLAnalysisError(f"unknown aggregate {name}")


def _coerce_num(value: Value) -> float:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return value  # type: ignore[return-value]
    raise SQLExecutionError(f"aggregate over non-numeric value {value!r}")


# -- ordering / distinct -------------------------------------------------------
def _sort_key(value: Value) -> Tuple[int, object]:
    """Total order over heterogeneous SQL values (NULLs last)."""
    if value is None:
        return (2, 0)
    if isinstance(value, bool):
        return (0, float(value))
    if isinstance(value, (int, float)):
        return (0, float(value))
    return (1, str(value))


def _sort_scored(
    scored: List[Tuple[List[Value], Tuple[Value, ...]]],
    order_by: Sequence[OrderItem],
) -> List[Tuple[List[Value], Tuple[Value, ...]]]:
    # Stable multi-key sort: apply keys right-to-left. For each key,
    # sort by value (honouring direction), then push NULLs to the end
    # with a second stable pass.
    out = list(scored)
    for index in range(len(order_by) - 1, -1, -1):
        descending = order_by[index].descending
        out.sort(key=lambda pair: _sort_key(pair[0][index]), reverse=descending)
        out.sort(key=lambda pair: pair[0][index] is None)
    return out


def _distinct(rows: List[Tuple[Value, ...]]) -> List[Tuple[Value, ...]]:
    seen: set = set()
    out: List[Tuple[Value, ...]] = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            out.append(row)
    return out
