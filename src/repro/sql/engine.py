"""The ``Database`` facade: execute SQL strings against a catalog."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import SQLAnalysisError, SQLExecutionError
from repro.sql.ast import (
    CreateIndex,
    CreateTable,
    DeleteFrom,
    DropTable,
    ExplainQuery,
    Expr,
    InsertInto,
    SelectQuery,
    UpdateTable,
)
from repro.sql.catalog import Catalog
from repro.sql.eval import RowEnv, evaluate
from repro.sql.executor import (
    ExecutionStats,
    ExecutorOptions,
    bind_row,
    candidate_positions,
    execute_select,
    explain_plan,
)
from repro.sql.parser import parse_sql
from repro.sql.schema import TableSchema
from repro.sql.table import Table
from repro.sql.types import Value, coerce


@dataclass
class QueryResult:
    """The result of one statement: column names plus rows.

    DDL/DML statements return an empty column list and report affected
    rows through ``rowcount``.
    """

    columns: List[str]
    rows: List[Tuple[Value, ...]]
    rowcount: int = 0

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> Value:
        """The single value of a 1x1 result (aggregate shortcuts)."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise SQLExecutionError(
                f"scalar() needs a 1x1 result, got "
                f"{len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def to_dicts(self) -> List[Dict[str, Value]]:
        """Rows as dictionaries keyed by output column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> List[Value]:
        """All values of one output column."""
        lowered = name.lower()
        for i, column in enumerate(self.columns):
            if column.lower() == lowered:
                return [row[i] for row in self.rows]
        raise SQLExecutionError(f"no output column {name!r} in {self.columns}")


class Database:
    """An in-memory SQL database: catalog + parser + executor.

    Example::

        db = Database()
        db.execute("CREATE TABLE t (id INT, name TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        result = db.execute("SELECT COUNT(*) FROM t")
        assert result.scalar() == 2
    """

    def __init__(self, options: Optional[ExecutorOptions] = None) -> None:
        self.catalog = Catalog()
        self.options = options or ExecutorOptions()
        self.last_stats = ExecutionStats()

    # -- direct table management ------------------------------------------------
    def add_table(self, table: Table, replace: bool = False) -> None:
        """Register an externally built table."""
        self.catalog.add(table, replace=replace)

    def table(self, name: str) -> Table:
        """Fetch a table by name."""
        return self.catalog.get(name)

    def load_csv(self, name: str, path: Union[str, Path]) -> Table:
        """Load a CSV file as a new table."""
        table = Table.from_csv(name, path)
        self.catalog.add(table)
        return table

    def table_names(self) -> List[str]:
        return self.catalog.names()

    # -- SQL entry point -----------------------------------------------------------
    def execute(self, sql: str) -> QueryResult:
        """Parse and run one SQL statement."""
        statement = parse_sql(sql)
        self.last_stats = ExecutionStats()
        if isinstance(statement, SelectQuery):
            columns, rows = execute_select(
                statement, self.catalog, self.options, self.last_stats
            )
            return QueryResult(columns=columns, rows=rows, rowcount=len(rows))
        if isinstance(statement, CreateTable):
            schema = TableSchema.build(statement.name, list(statement.columns))
            self.catalog.add(Table(schema))
            return QueryResult(columns=[], rows=[], rowcount=0)
        if isinstance(statement, InsertInto):
            return self._execute_insert(statement)
        if isinstance(statement, UpdateTable):
            return self._execute_update(statement)
        if isinstance(statement, DeleteFrom):
            return self._execute_delete(statement)
        if isinstance(statement, DropTable):
            self.catalog.drop(statement.name)
            return QueryResult(columns=[], rows=[], rowcount=0)
        if isinstance(statement, CreateIndex):
            self.catalog.get(statement.table).create_index(statement.column)
            return QueryResult(columns=[], rows=[], rowcount=0)
        if isinstance(statement, ExplainQuery):
            plan = explain_plan(statement.query, self.catalog, self.options)
            return QueryResult(
                columns=["plan"], rows=[(line,) for line in plan], rowcount=len(plan)
            )
        raise SQLExecutionError(f"unsupported statement {type(statement).__name__}")

    def _execute_update(self, statement: UpdateTable) -> QueryResult:
        table = self.catalog.get(statement.name)
        schema = table.schema
        # Validate assignment targets before touching any row.
        targets = [
            (schema.index_of(column), expr) for column, expr in statement.assignments
        ]
        # Compute every new row first: a failing SET leaves the table as it was.
        updates = []
        for position, env in self._matches(table, statement.name, statement.where):
            values = list(table.rows[position])
            for target, expr in targets:
                values[target] = coerce(
                    evaluate(expr, env), schema.columns[target].sql_type
                )
            updates.append((position, tuple(values)))
        for position, row in updates:
            table.rows[position] = row
        if updates and any(
            table.has_index(schema.columns[target].name) for target, _ in targets
        ):
            table.invalidate_indexes()
        return QueryResult(columns=[], rows=[], rowcount=len(updates))

    def _execute_delete(self, statement: DeleteFrom) -> QueryResult:
        table = self.catalog.get(statement.name)
        doomed = {
            position
            for position, _ in self._matches(table, statement.name, statement.where)
        }
        if doomed:
            table.rows = [
                row for position, row in enumerate(table.rows)
                if position not in doomed
            ]
            table.invalidate_indexes()
        return QueryResult(columns=[], rows=[], rowcount=len(doomed))

    def _matches(
        self, table: Table, name: str, where: Optional[Expr]
    ) -> List[Tuple[int, RowEnv]]:
        """``(position, bound row)`` of every row ``where`` holds for."""
        positions, _ = candidate_positions(
            table, name, where, self.options, self.last_stats
        )
        column_names = table.schema.column_names
        matched = []
        for position in positions:
            env = bind_row(name, column_names, table.rows[position])
            if where is None or evaluate(where, env) is True:
                matched.append((position, env))
        return matched

    def _execute_insert(self, statement: InsertInto) -> QueryResult:
        table = self.catalog.get(statement.name)
        env = RowEnv()  # INSERT values are constant expressions
        schema = table.schema
        for value_row in statement.rows:
            values = [evaluate(expr, env) for expr in value_row]
            if statement.columns:
                if len(values) != len(statement.columns):
                    raise SQLAnalysisError(
                        "INSERT column list and VALUES length differ"
                    )
                full: List[Value] = [None] * len(schema)
                for column_name, value in zip(statement.columns, values):
                    full[schema.index_of(column_name)] = value
                table.insert(full)
            else:
                table.insert(values)
        return QueryResult(columns=[], rows=[], rowcount=len(statement.rows))

    def explain_stats(self) -> ExecutionStats:
        """Execution counters of the most recent statement."""
        return self.last_stats

