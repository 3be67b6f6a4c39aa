"""Name binding: resolve a SELECT's names against the catalog, once.

:func:`bind_select` turns a parsed :class:`~repro.sql.ast.SelectQuery`
into a :class:`BoundQuery`:

* the FROM slots in FROM order: the base table, then each JOIN;
* every :class:`~repro.sql.ast.ColumnRef` resolved to its slot, its
  column position and its :class:`~repro.sql.types.SQLType`;
* ``*`` and ``t.*`` expanded in schema order, and the output column
  names, known before any row is read;
* each ORDER BY item resolved to an output position, or kept as an
  expression to evaluate.

An unknown or ambiguous name raises :class:`~repro.errors.SQLBindError`,
whose ``rule`` is ``unknown-column``, ``unknown-alias`` or
``ambiguous-column``. The executor, the static checker
(:mod:`repro.analysis.sqlcheck`) and the cluster planner all resolve
names here. Subqueries bind in their own scope: they see only their own
FROM. Bindings depend on the catalog, so nothing here is cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.errors import SQLBindError
from repro.sql.ast import (
    ColumnRef,
    Expr,
    FuncCall,
    InSubquery,
    SelectItem,
    SelectQuery,
    Star,
    Subquery,
    TableRef,
    walk_expr,
)
from repro.sql.catalog import Catalog
from repro.sql.schema import TableSchema
from repro.sql.types import SQLType


class Slot(NamedTuple):
    """One FROM or JOIN table: the name the query gives it, and its schema."""

    ref: TableRef
    schema: TableSchema

    @property
    def name(self) -> str:
        return self.ref.effective_name


class BoundColumn(NamedTuple):
    """Where a column reference reads: FROM slot, column position, type."""

    slot: int
    index: int
    sql_type: SQLType


class Scope:
    """The FROM slots that one SELECT's column names resolve against."""

    def __init__(self, slots: Sequence[Slot]) -> None:
        self.slots = tuple(slots)
        self._names = [slot.name.lower() for slot in self.slots]
        self._positions = [slot.schema.positions for slot in self.slots]

    @classmethod
    def of(cls, query: SelectQuery, catalog: Catalog) -> "Scope":
        """The scope of ``query``'s FROM; an unknown table raises
        :class:`~repro.errors.CatalogError`."""
        refs = (query.table, *(join.table for join in query.joins))
        return cls([Slot(ref, catalog.get(ref.name).schema) for ref in refs])

    def _named(self, table: str, reference: str) -> List[int]:
        lowered = table.lower()
        slots = [i for i, name in enumerate(self._names) if name == lowered]
        if not slots:
            raise SQLBindError(
                "unknown-alias",
                f"no table {table!r} in FROM for reference {reference!r}",
            )
        return slots

    def resolve(self, ref: ColumnRef) -> BoundColumn:
        """Bind one column reference, or raise :class:`SQLBindError`."""
        column = ref.name.lower()
        candidates = (
            range(len(self.slots)) if ref.table is None
            else self._named(ref.table, ref.sql())
        )
        owners = [i for i in candidates if column in self._positions[i]]
        if not owners:
            if ref.table is not None:
                schema = self.slots[candidates[0]].schema
                message = (
                    f"table {ref.table!r} has no column {ref.name!r} "
                    f"(has: {schema.column_names})"
                )
            else:
                known = sorted(
                    {c for slot in self.slots for c in slot.schema.column_names}
                )
                message = (
                    f"no table in FROM has column {ref.name!r} "
                    f"(known columns: {known})"
                )
            raise SQLBindError("unknown-column", message)
        if len(owners) > 1:
            tables = sorted(self.slots[i].name for i in owners)
            raise SQLBindError(
                "ambiguous-column",
                f"column {ref.name!r} exists in {tables}; "
                "qualify it with a table name",
            )
        slot = owners[0]
        index = self._positions[slot][column]
        return BoundColumn(slot, index, self.slots[slot].schema.columns[index].sql_type)

    def outputs(
        self, items: Sequence[SelectItem]
    ) -> Tuple[Tuple[Expr, ...], Tuple[str, ...], Dict[ColumnRef, BoundColumn]]:
        """One expression and one name per output column, and the
        binding of each column a star stands for.

        ``*`` stands for every column of every slot, and ``t.*`` for
        those of ``t``, in FROM order and then schema order; each
        becomes a qualified :class:`ColumnRef`.
        """
        exprs: List[Expr] = []
        names: List[str] = []
        starred: Dict[ColumnRef, BoundColumn] = {}
        for position, item in enumerate(items):
            if not isinstance(item.expr, Star):
                exprs.append(item.expr)
                names.append(item.output_name(position))
                continue
            star = item.expr
            slots = (
                range(len(self.slots)) if star.table is None
                else self._named(star.table, star.sql())
            )
            for slot in slots:
                name = self.slots[slot].name
                for index, column in enumerate(self.slots[slot].schema.columns):
                    ref = ColumnRef(column.name, name)
                    starred[ref] = BoundColumn(slot, index, column.sql_type)
                    exprs.append(ref)
                    names.append(column.name)
        return tuple(exprs), tuple(names), starred


def order_position(expr: Expr, names: Sequence[str]) -> Optional[int]:
    """The output column an ORDER BY key names, or None for an expression.

    A bare name equal to an output name (an alias, or a selected
    column) sorts by that output; the first such output wins.
    """
    if isinstance(expr, ColumnRef) and expr.table is None:
        name = expr.name.lower()
        for position, output in enumerate(names):
            if output.lower() == name:
                return position
    return None


@dataclass(frozen=True)
class BoundQuery:
    """A SELECT with every name resolved (see the module docstring)."""

    query: SelectQuery
    slots: Tuple[Slot, ...]
    #: every column reference outside subquery bodies, by value
    columns: Dict[ColumnRef, BoundColumn]
    #: one expression per output column, stars expanded
    outputs: Tuple[Expr, ...]
    names: Tuple[str, ...]
    #: per ORDER BY item: an output position, or the expression to sort by
    order: Tuple[Union[int, Expr], ...]
    #: GROUP BY, or an aggregate in the select list, HAVING or ORDER BY
    aggregate: bool
    has_subquery: bool

    def slots_of(self, expr: Expr) -> FrozenSet[int]:
        """The FROM slots an expression reads."""
        return frozenset(
            self.columns[node].slot
            for node in walk_expr(expr)
            if isinstance(node, ColumnRef)
        )


def bind_select(query: SelectQuery, catalog: Catalog) -> BoundQuery:
    """Resolve every name of ``query``; raises before any row is read."""
    scope = Scope.of(query, catalog)
    outputs, names, columns = scope.outputs(query.items)
    order: List[Union[int, Expr]] = []
    for item in query.order_by:
        position = order_position(item.expr, names)
        order.append(item.expr if position is None else position)

    aggregate = bool(query.group_by)
    has_subquery = False
    row_exprs = [join.condition for join in query.joins] + [query.where]
    row_exprs.extend(query.group_by)
    value_exprs = [item.expr for item in query.items if not isinstance(item.expr, Star)]
    value_exprs.append(query.having)
    value_exprs.extend(key for key in order if not isinstance(key, int))
    for exprs, may_aggregate in ((row_exprs, False), (value_exprs, True)):
        for expr in exprs:
            if expr is None:
                continue
            for node in walk_expr(expr):
                if isinstance(node, ColumnRef):
                    if node not in columns:
                        columns[node] = scope.resolve(node)
                elif isinstance(node, (Subquery, InSubquery)):
                    bind_select(node.query, catalog)
                    has_subquery = True
                elif may_aggregate and isinstance(node, FuncCall):
                    aggregate = aggregate or node.is_aggregate
    return BoundQuery(
        query=query,
        slots=scope.slots,
        columns=columns,
        outputs=outputs,
        names=names,
        order=tuple(order),
        aggregate=aggregate,
        has_subquery=has_subquery,
    )
