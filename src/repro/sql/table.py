"""In-memory tables: schema + row storage with type coercion."""

from __future__ import annotations

import csv
from io import StringIO
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import SQLExecutionError
from repro.sql.schema import Column, TableSchema
from repro.sql.types import SQLType, Value, coerce, infer_type

Row = Tuple[Value, ...]


class Table:
    """A materialized relation: a schema plus a list of tuples."""

    def __init__(self, schema: TableSchema, rows: Optional[Iterable[Sequence[Value]]] = None) -> None:
        self.schema = schema
        self.rows: List[Row] = []
        self._indexes: Dict[str, Dict[Value, List[int]]] = {}
        self._dirty_indexes = False
        if rows is not None:
            for row in rows:
                self.insert(row)

    # -- mutation ------------------------------------------------------------
    def insert(self, row: Sequence[Value]) -> None:
        """Insert one row, coercing values to column types."""
        if len(row) != len(self.schema):
            raise SQLExecutionError(
                f"row has {len(row)} values, table {self.schema.name!r} "
                f"has {len(self.schema)} columns"
            )
        coerced = tuple(
            coerce(value, column.sql_type)
            for value, column in zip(row, self.schema.columns)
        )
        self.rows.append(coerced)
        for column_lower, index in self._indexes.items():
            position = self.schema.index_of(column_lower)
            index.setdefault(coerced[position], []).append(len(self.rows) - 1)

    # -- hash indexes --------------------------------------------------------
    def create_index(self, column_name: str) -> None:
        """Build a hash index (value -> row positions) on one column."""
        self.schema.index_of(column_name)  # validates the column exists
        self._indexes[column_name.lower()] = {}
        self._rebuild_indexes()

    def has_index(self, column_name: str) -> bool:
        return column_name.lower() in self._indexes

    def index_names(self) -> List[str]:
        return sorted(self._indexes)

    def invalidate_indexes(self) -> None:
        """Mark indexes stale after bulk row mutation (UPDATE/DELETE)."""
        self._dirty_indexes = True

    def index_lookup(self, column_name: str, value: Value) -> List[int]:
        """Row positions whose ``column_name`` equals ``value``."""
        key = column_name.lower()
        if key not in self._indexes:
            raise SQLExecutionError(
                f"no index on {self.schema.name}.{column_name}"
            )
        if self._dirty_indexes:
            self._rebuild_indexes()
        return list(self._indexes[key].get(value, ()))

    def _rebuild_indexes(self) -> None:
        for column_lower in self._indexes:
            position = self.schema.index_of(column_lower)
            fresh: Dict[Value, List[int]] = {}
            for row_position, row in enumerate(self.rows):
                fresh.setdefault(row[position], []).append(row_position)
            self._indexes[column_lower] = fresh
        self._dirty_indexes = False

    def insert_many(self, rows: Iterable[Sequence[Value]]) -> int:
        """Insert many rows; return the count."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    # -- access --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def column_values(self, column_name: str) -> List[Value]:
        """All values of one column, in row order."""
        idx = self.schema.index_of(column_name)
        return [row[idx] for row in self.rows]

    def to_dicts(self) -> List[Dict[str, Value]]:
        """Rows as dictionaries keyed by column name."""
        names = self.schema.column_names
        return [dict(zip(names, row)) for row in self.rows]

    # -- construction helpers ----------------------------------------------------
    @classmethod
    def from_dicts(
        cls, name: str, records: Sequence[Dict[str, Value]]
    ) -> "Table":
        """Build a table from dict records, inferring column types."""
        if not records:
            raise SQLExecutionError("cannot infer a schema from zero records")
        column_names = list(records[0].keys())
        columns = []
        for column_name in column_names:
            sample = next(
                (r[column_name] for r in records if r.get(column_name) is not None),
                None,
            )
            columns.append(Column(column_name, infer_type(sample)))
        schema = TableSchema(name=name, columns=columns)
        table = cls(schema)
        for record in records:
            table.insert([record.get(c) for c in column_names])
        return table

    # -- CSV I/O --------------------------------------------------------------
    def to_csv(self, path: Union[str, Path]) -> Path:
        """Write the table to a CSV file (header + rows, NULL as empty).

        The file is replaced atomically (temp + fsync + rename), so a
        crash mid-export never leaves a truncated CSV behind.
        """
        buffer = StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.schema.column_names)
        for row in self.rows:
            writer.writerow(["" if v is None else v for v in row])
        # Deferred import: repro.durability depends on repro.sql, so a
        # module-level import here would be circular.
        from repro.durability.io import atomic_write_text

        return atomic_write_text(path, buffer.getvalue(), label="csv")

    @classmethod
    def from_csv(cls, name: str, path: Union[str, Path]) -> "Table":
        """Load a CSV with a header row; empty cells become NULL.

        Each column's type is inferred from the values (INT if all
        parse as ints, else FLOAT, else TEXT).
        """
        path = Path(path)
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise SQLExecutionError(f"{path} is empty") from None
            raw_rows = [row for row in reader]
        types = [_infer_csv_type(raw_rows, i) for i in range(len(header))]
        schema = TableSchema.build(name, list(zip(header, types)))
        table = cls(schema)
        for raw in raw_rows:
            table.insert([None if cell == "" else cell for cell in raw])
        return table


def _infer_csv_type(rows: List[List[str]], index: int) -> SQLType:
    """Infer a column type from string cells."""
    saw_value = False
    all_int, all_float = True, True
    for row in rows:
        cell = row[index] if index < len(row) else ""
        if cell == "":
            continue
        saw_value = True
        try:
            int(cell)
        except ValueError:
            all_int = False
            try:
                float(cell)
            except ValueError:
                all_float = False
                break
    if not saw_value:
        return SQLType.TEXT
    if all_int:
        return SQLType.INT
    if all_float:
        return SQLType.FLOAT
    return SQLType.TEXT
