"""Query execution: joins, filtering, grouping, ordering, projection.

The executor materializes intermediate results as lists of
:class:`~repro.sql.eval.RowEnv` bindings. Two optimizations can be
toggled (the engine ablation benchmark flips them):

* **predicate pushdown** — WHERE conjuncts that reference a single
  table are applied before joins, and a ``col = literal`` conjunct over
  an indexed column is answered by the hash index (for SELECT, UPDATE
  and DELETE alike, through :func:`candidate_positions`);
* **hash joins** — INNER equi-joins build a hash table on the join key
  instead of running a nested loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SQLAnalysisError, SQLExecutionError
from repro.sql.ast import (
    BinaryOp,
    Between,
    CaseWhen,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    JoinClause,
    Literal,
    OrderItem,
    SelectItem,
    SelectQuery,
    Star,
    Subquery,
    TableRef,
    UnaryOp,
)
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
    rows_joined: int = 0
    join_probes: int = 0
    index_lookups: int = 0


def execute_select(
    query: SelectQuery,
    catalog: Catalog,
    options: Optional[ExecutorOptions] = None,
    stats: Optional[ExecutionStats] = None,
) -> Tuple[List[str], List[Tuple[Value, ...]]]:
    """Run a SELECT; returns (column names, result rows)."""
    options = options or ExecutorOptions()
    stats = stats if stats is not None else ExecutionStats()

    query = _materialize_subqueries(query, catalog, options, stats)
    where_conjuncts = _split_conjuncts(query.where)
    pushed: set[int] = set()

    # FROM: bind the base table — through a hash index when an equality
    # conjunct targets an indexed column, else a full scan.
    table = catalog.get(query.table.name)
    positions, probed = candidate_positions(
        table, query.table.effective_name, query.where, options, stats
    )
    if probed is not None:
        pushed.add(probed)
    rows = _bind_rows(table, query.table.effective_name, positions)
    if options.predicate_pushdown:
        rows, pushed = _apply_single_table_predicates(
            rows, where_conjuncts, {query.table.effective_name.lower()}, pushed
        )

    # JOINs, applied left to right.
    bound_tables = {query.table.effective_name.lower()}
    for join in query.joins:
        right_rows = _scan(catalog, join.table, stats)
        if options.predicate_pushdown:
            right_rows, pushed = _apply_single_table_predicates(
                right_rows, where_conjuncts,
                {join.table.effective_name.lower()}, pushed,
            )
        right_columns = [
            (join.table.effective_name.lower(), column.lower())
            for column in catalog.get(join.table.name).schema.column_names
        ]
        rows = _join(rows, right_rows, join, options, stats, right_columns)
        bound_tables.add(join.table.effective_name.lower())

    # Remaining WHERE conjuncts.
    for index, conjunct in enumerate(where_conjuncts):
        if index in pushed:
            continue
        rows = [env for env in rows if evaluate(conjunct, env) is True]

    is_aggregate = bool(query.group_by) or _query_has_aggregates(query)
    if is_aggregate:
        # _execute_aggregate applies HAVING and ORDER BY internally.
        columns, result = _execute_aggregate(query, rows)
    else:
        if query.having is not None:
            raise SQLAnalysisError("HAVING requires GROUP BY or aggregates")
        columns, result = _execute_plain(query, rows)
        if query.order_by:
            result = _order_plain(query, rows, result, columns)
    if query.distinct:
        # Sorting happened first, and dedup is stable, so order survives.
        result = _distinct(result)
    if query.limit is not None:
        result = result[: query.limit]
    return columns, result


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
        if isinstance(expr, BinaryOp):
            return BinaryOp(
                op=expr.op, left=transform(expr.left), right=transform(expr.right)
            )
        if isinstance(expr, UnaryOp):
            return UnaryOp(op=expr.op, operand=transform(expr.operand))
        if isinstance(expr, IsNull):
            return IsNull(operand=transform(expr.operand), negated=expr.negated)
        if isinstance(expr, InList):
            return InList(
                operand=transform(expr.operand),
                items=tuple(transform(i) for i in expr.items),
                negated=expr.negated,
            )
        if isinstance(expr, Between):
            return Between(
                operand=transform(expr.operand),
                low=transform(expr.low),
                high=transform(expr.high),
                negated=expr.negated,
            )
        if isinstance(expr, FuncCall):
            return FuncCall(
                name=expr.name,
                args=tuple(transform(a) for a in expr.args),
                distinct=expr.distinct,
            )
        if isinstance(expr, CaseWhen):
            return CaseWhen(
                branches=tuple(
                    (transform(c), transform(v)) for c, v in expr.branches
                ),
                default=transform(expr.default) if expr.default is not None else None,
            )
        return expr

    def has_subquery(expr: Optional[Expr]) -> bool:
        if expr is None:
            return False
        found = False

        def walk(node: Expr) -> None:
            nonlocal found
            if isinstance(node, (Subquery, InSubquery)):
                found = True
            for child in _children(node):
                walk(child)

        walk(expr)
        return found

    touched = (
        has_subquery(query.where)
        or has_subquery(query.having)
        or any(has_subquery(item.expr) for item in query.items)
    )
    if not touched:
        return query
    import dataclasses

    return dataclasses.replace(
        query,
        items=tuple(
            SelectItem(expr=transform(item.expr), alias=item.alias)
            if not isinstance(item.expr, Star)
            else item
            for item in query.items
        ),
        where=transform(query.where) if query.where is not None else None,
        having=transform(query.having) if query.having is not None else None,
    )


def _children(expr: Expr) -> List[Expr]:
    """Direct child expressions of a node (for generic walking)."""
    if isinstance(expr, BinaryOp):
        return [expr.left, expr.right]
    if isinstance(expr, UnaryOp):
        return [expr.operand]
    if isinstance(expr, IsNull):
        return [expr.operand]
    if isinstance(expr, InList):
        return [expr.operand, *expr.items]
    if isinstance(expr, InSubquery):
        return [expr.operand]
    if isinstance(expr, Between):
        return [expr.operand, expr.low, expr.high]
    if isinstance(expr, FuncCall):
        return list(expr.args)
    if isinstance(expr, CaseWhen):
        children = [c for pair in expr.branches for c in pair]
        if expr.default is not None:
            children.append(expr.default)
        return children
    return []


def explain_plan(
    query: SelectQuery,
    catalog: Catalog,
    options: Optional[ExecutorOptions] = None,
) -> List[str]:
    """Describe the execution strategy for a SELECT (the EXPLAIN output).

    Mirrors the decisions :func:`execute_select` makes: which WHERE
    conjuncts are pushed below the joins, and which join algorithm each
    JOIN clause uses.
    """
    options = options or ExecutorOptions()
    conjuncts = _split_conjuncts(query.where)
    lines: List[str] = []

    def pushed_to(table_name: str) -> List[str]:
        if not options.predicate_pushdown:
            return []
        visible = {table_name.lower()}
        return [
            c.sql() for c in conjuncts
            if (tables := _referenced_tables(c)) is not None
            and tables and tables <= visible
        ]

    base = query.table
    base_predicates = pushed_to(base.effective_name)
    scan = f"Scan {base.sql()} (rows={len(catalog.get(base.name))})"
    if base_predicates:
        scan += f" pushed-filter: {' AND '.join(base_predicates)}"
    lines.append(scan)

    claimed = set(base_predicates)
    for join in query.joins:
        right_predicates = [
            p for p in pushed_to(join.table.effective_name) if p not in claimed
        ]
        claimed |= set(right_predicates)
        if join.kind == "CROSS":
            algorithm = "cross product"
        elif (
            options.hash_joins
            and join.kind == "INNER"
            and _equi_join_key(join.condition) is not None
        ):
            algorithm = "hash join"
        else:
            algorithm = "nested-loop join"
        line = f"{join.kind} {algorithm} with {join.table.sql()}"
        if join.condition is not None:
            line += f" ON {join.condition.sql()}"
        if right_predicates:
            line += f" pushed-filter: {' AND '.join(right_predicates)}"
        lines.append(line)

    residual = [c.sql() for c in conjuncts if c.sql() not in claimed]
    if residual:
        lines.append(f"Filter: {' AND '.join(residual)}")
    if query.group_by or _query_has_aggregates(query):
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


def _scan(catalog: Catalog, ref: TableRef, stats: ExecutionStats) -> List[RowEnv]:
    table = catalog.get(ref.name)
    stats.rows_scanned += len(table.rows)
    return _bind_rows(table, ref.effective_name, range(len(table.rows)))


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
    join: JoinClause,
    options: ExecutorOptions,
    stats: ExecutionStats,
    right_columns: List[Tuple[str, str]],
) -> List[RowEnv]:
    if join.kind == "CROSS":
        out = [l.merged_with(r) for l in left for r in right]
        stats.rows_joined += len(out)
        return out

    equi = _equi_join_key(join.condition) if options.hash_joins else None
    if equi is not None and join.kind == "INNER":
        return _hash_join(left, right, join, equi, stats)
    return _nested_loop_join(left, right, join, stats, right_columns)


def _nested_loop_join(
    left: List[RowEnv],
    right: List[RowEnv],
    join: JoinClause,
    stats: ExecutionStats,
    right_columns: List[Tuple[str, str]],
) -> List[RowEnv]:
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
            out.append(_pad_left_join(left_env, right_columns))
    stats.rows_joined += len(out)
    return out


def _pad_left_join(
    left_env: RowEnv, right_columns: List[Tuple[str, str]]
) -> RowEnv:
    """Extend a left row with NULLs for every right-side column.

    The column list comes from the right table's *schema*, so the
    padding is correct even when the right side has zero rows.
    """
    padded = RowEnv()
    for (table, column), value in left_env.qualified.items():
        padded.bind(table, column, value)
    for table, column in right_columns:
        padded.bind(table, column, None)
    return padded


def _equi_join_key(condition: Optional[Expr]) -> Optional[Tuple[ColumnRef, ColumnRef]]:
    """Detect ``a.x = b.y`` conditions eligible for hash joins."""
    if (
        isinstance(condition, BinaryOp)
        and condition.op == "="
        and isinstance(condition.left, ColumnRef)
        and isinstance(condition.right, ColumnRef)
    ):
        return condition.left, condition.right
    return None


def _hash_join(
    left: List[RowEnv],
    right: List[RowEnv],
    join: JoinClause,
    equi: Tuple[ColumnRef, ColumnRef],
    stats: ExecutionStats,
) -> List[RowEnv]:
    left_ref, right_ref = equi
    # Figure out which side of the equality belongs to the right input.
    probe_ref, build_ref = left_ref, right_ref
    if right and not _binds(right[0], right_ref):
        probe_ref, build_ref = right_ref, left_ref

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
    stats.rows_joined += len(out)
    return out


def _binds(env: RowEnv, ref: ColumnRef) -> bool:
    try:
        env.lookup(ref.name, ref.table)
        return True
    except SQLAnalysisError:
        return False


# -- WHERE handling --------------------------------------------------------
def _split_conjuncts(where: Optional[Expr]) -> List[Expr]:
    """Flatten a WHERE tree into top-level AND conjuncts."""
    if where is None:
        return []
    if isinstance(where, BinaryOp) and where.op == "AND":
        return _split_conjuncts(where.left) + _split_conjuncts(where.right)
    return [where]


def _apply_single_table_predicates(
    rows: List[RowEnv],
    conjuncts: List[Expr],
    visible_tables: set[str],
    already_pushed: set[int],
) -> Tuple[List[RowEnv], set[int]]:
    """Filter rows by conjuncts whose columns all live in ``visible_tables``."""
    pushed = set(already_pushed)
    for index, conjunct in enumerate(conjuncts):
        if index in pushed:
            continue
        tables = _referenced_tables(conjunct)
        if tables is None or not tables or not tables <= visible_tables:
            continue
        rows = [env for env in rows if evaluate(conjunct, env) is True]
        pushed.add(index)
    return rows, pushed


def _referenced_tables(expr: Expr) -> Optional[set[str]]:
    """Tables referenced by an expression; None if it has bare columns
    (which cannot be attributed without full binding context)."""
    tables: set[str] = set()
    bare = False

    def walk(node: Expr) -> None:
        nonlocal bare
        if isinstance(node, ColumnRef):
            if node.table is None:
                bare = True
            else:
                tables.add(node.table.lower())
        elif isinstance(node, BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, UnaryOp):
            walk(node.operand)
        elif isinstance(node, IsNull):
            walk(node.operand)
        elif isinstance(node, InList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, FuncCall):
            for arg in node.args:
                walk(arg)
        elif isinstance(node, CaseWhen):
            for cond, value in node.branches:
                walk(cond)
                walk(value)
            if node.default is not None:
                walk(node.default)

    walk(expr)
    return None if bare else tables


# -- projection (non-aggregate) ----------------------------------------------
def _execute_plain(
    query: SelectQuery, rows: List[RowEnv]
) -> Tuple[List[str], List[Tuple[Value, ...]]]:
    columns = _output_columns(query, rows)
    result: List[Tuple[Value, ...]] = []
    for env in rows:
        values: List[Value] = []
        for item in query.items:
            if isinstance(item.expr, Star):
                values.extend(_star_values(item.expr, env))
            else:
                values.append(evaluate(item.expr, env))
        result.append(tuple(values))
    return columns, result


def _output_columns(query: SelectQuery, rows: List[RowEnv]) -> List[str]:
    columns: List[str] = []
    for position, item in enumerate(query.items):
        if isinstance(item.expr, Star):
            columns.extend(_star_columns(item.expr, rows))
        else:
            columns.append(item.output_name(position))
    return columns


def _star_columns(star: Star, rows: List[RowEnv]) -> List[str]:
    if not rows:
        return []
    sample = rows[0]
    keys = sorted(sample.qualified.keys()) if star.table is None else [
        key for key in sorted(sample.qualified.keys())
        if key[0] == star.table.lower()
    ]
    if star.table is not None and not keys:
        raise SQLAnalysisError(f"unknown table in {star.table}.*")
    return [column for _, column in keys]


def _star_values(star: Star, env: RowEnv) -> List[Value]:
    keys = sorted(env.qualified.keys())
    if star.table is not None:
        keys = [key for key in keys if key[0] == star.table.lower()]
        if not keys:
            raise SQLAnalysisError(f"unknown table in {star.table}.*")
    return [env.qualified[key] for key in keys]


# -- aggregation ---------------------------------------------------------------
def _query_has_aggregates(query: SelectQuery) -> bool:
    nodes: List[Expr] = [item.expr for item in query.items]
    if query.having is not None:
        nodes.append(query.having)
    nodes.extend(order.expr for order in query.order_by)
    return any(_contains_aggregate(node) for node in nodes)


def _contains_aggregate(expr: Expr) -> bool:
    if isinstance(expr, FuncCall) and expr.is_aggregate:
        return True
    children: List[Expr] = []
    if isinstance(expr, BinaryOp):
        children = [expr.left, expr.right]
    elif isinstance(expr, UnaryOp):
        children = [expr.operand]
    elif isinstance(expr, IsNull):
        children = [expr.operand]
    elif isinstance(expr, InList):
        children = [expr.operand, *expr.items]
    elif isinstance(expr, Between):
        children = [expr.operand, expr.low, expr.high]
    elif isinstance(expr, FuncCall):
        children = list(expr.args)
    elif isinstance(expr, CaseWhen):
        children = [c for pair in expr.branches for c in pair]
        if expr.default is not None:
            children.append(expr.default)
    return any(_contains_aggregate(child) for child in children)


def _execute_aggregate(
    query: SelectQuery, rows: List[RowEnv]
) -> Tuple[List[str], List[Tuple[Value, ...]]]:
    # Build groups.
    groups: Dict[Tuple[Value, ...], List[RowEnv]] = {}
    if query.group_by:
        for env in rows:
            key = tuple(evaluate(g, env) for g in query.group_by)
            groups.setdefault(key, []).append(env)
    else:
        groups[()] = rows  # global aggregate; one group even if empty

    columns = [item.output_name(i) for i, item in enumerate(query.items)]
    for item in query.items:
        if isinstance(item.expr, Star):
            raise SQLAnalysisError("'*' cannot appear with aggregation")

    scored: List[Tuple[List[Value], Tuple[Value, ...]]] = []
    for key, group_rows in groups.items():
        representative = group_rows[0] if group_rows else RowEnv()
        if query.having is not None:
            verdict = _eval_aggregate_expr(query.having, group_rows, representative)
            if verdict is not True:
                continue
        projected = tuple(
            _eval_aggregate_expr(item.expr, group_rows, representative)
            for item in query.items
        )
        order_key: List[Value] = []
        for order in query.order_by:
            order_key.append(
                _resolve_order_value(order, query, projected, columns, group_rows, representative)
            )
        scored.append((order_key, projected))

    if query.order_by:
        scored = _sort_scored(scored, query.order_by)
    return columns, [projected for _, projected in scored]


def _resolve_order_value(
    order: OrderItem,
    query: SelectQuery,
    projected: Tuple[Value, ...],
    columns: List[str],
    group_rows: List[RowEnv],
    representative: RowEnv,
) -> Value:
    # ORDER BY may reference a select alias or output column name.
    if isinstance(order.expr, ColumnRef) and order.expr.table is None:
        name = order.expr.name.lower()
        for i, column in enumerate(columns):
            if column.lower() == name:
                return projected[i]
    return _eval_aggregate_expr(order.expr, group_rows, representative)


def _eval_aggregate_expr(
    expr: Expr, group_rows: List[RowEnv], representative: RowEnv
) -> Value:
    """Evaluate an expression tree, computing aggregates over the group."""
    if isinstance(expr, FuncCall) and expr.is_aggregate:
        return _compute_aggregate(expr, group_rows)
    if isinstance(expr, (Literal,)):
        return expr.value
    if isinstance(expr, ColumnRef):
        # Non-aggregated column: per SQL it must be a group key; we take
        # the representative row's value (group members agree on keys).
        return evaluate(expr, representative)
    if isinstance(expr, BinaryOp):
        rebuilt = BinaryOp(
            op=expr.op,
            left=Literal(_eval_aggregate_expr(expr.left, group_rows, representative)),
            right=Literal(_eval_aggregate_expr(expr.right, group_rows, representative)),
        )
        return evaluate(rebuilt, representative)
    if isinstance(expr, UnaryOp):
        rebuilt = UnaryOp(
            op=expr.op,
            operand=Literal(_eval_aggregate_expr(expr.operand, group_rows, representative)),
        )
        return evaluate(rebuilt, representative)
    if isinstance(expr, IsNull):
        value = _eval_aggregate_expr(expr.operand, group_rows, representative)
        return (value is not None) if expr.negated else (value is None)
    if isinstance(expr, FuncCall):
        rebuilt = FuncCall(
            name=expr.name,
            args=tuple(
                Literal(_eval_aggregate_expr(a, group_rows, representative))
                for a in expr.args
            ),
        )
        return evaluate(rebuilt, representative)
    if isinstance(expr, CaseWhen):
        for condition, result in expr.branches:
            if _eval_aggregate_expr(condition, group_rows, representative) is True:
                return _eval_aggregate_expr(result, group_rows, representative)
        if expr.default is not None:
            return _eval_aggregate_expr(expr.default, group_rows, representative)
        return None
    return evaluate(expr, representative)


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


def _order_plain(
    query: SelectQuery,
    rows: List[RowEnv],
    result: List[Tuple[Value, ...]],
    columns: List[str],
) -> List[Tuple[Value, ...]]:
    # Compute order keys per source row (aliases resolve to outputs).
    keyed: List[Tuple[List[Value], Tuple[Value, ...]]] = []
    lower_columns = [c.lower() for c in columns]
    for env, projected in zip(rows, result):
        key: List[Value] = []
        for order in query.order_by:
            value: Value
            if isinstance(order.expr, ColumnRef) and order.expr.table is None and (
                order.expr.name.lower() in lower_columns
            ):
                value = projected[lower_columns.index(order.expr.name.lower())]
            else:
                value = evaluate(order.expr, env)
            key.append(value)
        keyed.append((key, projected))
    keyed = _sort_scored(keyed, query.order_by)
    return [projected for _, projected in keyed]


def _distinct(rows: List[Tuple[Value, ...]]) -> List[Tuple[Value, ...]]:
    seen: set = set()
    out: List[Tuple[Value, ...]] = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            out.append(row)
    return out
