"""The SemanticDatabase: SQL plus the ``NL(column, 'description')`` operator."""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from repro.errors import SQLBindError
from repro.semantic.predicate import TextPredicate
from repro.semantic.rewrite import (
    SemanticError,
    extract_nl_calls,
    nl_call_parts,
    rewrite_expression,
    vet_rewritten,
)
from repro.sql import Database, QueryResult
from repro.sql.ast import (
    ColumnRef,
    FuncCall,
    InList,
    Literal,
    SelectQuery,
)
from repro.sql.bind import Scope
from repro.sql.parser import parse_sql


class SemanticDatabase:
    """Wraps a relational database with LM-evaluated text predicates.

    ``NL(column, 'description')`` calls in WHERE/HAVING are compiled
    before execution: the predicate runs once per *distinct* value of
    the column (the dictionary-evaluation strategy — classifier calls
    scale with vocabulary, not with row count), and the call is replaced
    by an ``IN`` list of matching values.
    """

    def __init__(self, db: Database, predicate: TextPredicate) -> None:
        self.db = db
        self.predicate = predicate
        self.predicate_evaluations = 0
        self._cache: Dict[Tuple[str, str], Tuple[str, ...]] = {}

    def execute(self, sql: str) -> QueryResult:
        """Parse, compile NL predicates away, and run on the engine."""
        statement = parse_sql(sql)
        if not isinstance(statement, SelectQuery):
            return self.db.execute(sql)
        calls = extract_nl_calls(statement.where) + extract_nl_calls(statement.having)
        if not calls:
            return self.db.execute(sql)

        def replace(call: FuncCall):
            column, description = nl_call_parts(call)
            matching = self._matching_values(statement, column, description)
            if not matching:
                # No value satisfies the predicate: compile to FALSE.
                return Literal(False)
            return InList(
                operand=column,
                items=tuple(Literal(v) for v in matching),
            )

        rewritten = dataclasses.replace(
            statement,
            where=(
                rewrite_expression(statement.where, replace)
                if statement.where is not None
                else None
            ),
            having=(
                rewrite_expression(statement.having, replace)
                if statement.having is not None
                else None
            ),
        )
        vet_rewritten(rewritten, self.db.catalog)
        return self.db.execute(rewritten.sql())

    # -- predicate compilation ------------------------------------------------
    def _matching_values(
        self, query: SelectQuery, column: ColumnRef, description: str
    ) -> Tuple[str, ...]:
        table_name = self._resolve_table(query, column)
        cache_key = (f"{table_name}.{column.name}".lower(), description.lower())
        if cache_key in self._cache:
            return self._cache[cache_key]
        values = sorted(
            {
                v
                for v in self.db.table(table_name).column_values(column.name)
                if isinstance(v, str)
            }
        )
        matching = tuple(
            v for v in values if self._evaluate(v, description)
        )
        self._cache[cache_key] = matching
        return matching

    def _evaluate(self, text: str, description: str) -> bool:
        self.predicate_evaluations += 1
        return self.predicate.matches(text, description)

    def _resolve_table(self, query: SelectQuery, column: ColumnRef) -> str:
        scope = Scope.of(query, self.db.catalog)
        try:
            return scope.slots[scope.resolve(column).slot].ref.name
        except SQLBindError as error:
            raise SemanticError(f"NL() column: {error}") from error
