"""Table schemas: ordered, typed columns."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import SQLAnalysisError
from repro.sql.types import SQLType


@dataclass(frozen=True)
class Column:
    """One column: a name and a type."""

    name: str
    sql_type: SQLType

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise SQLAnalysisError(f"invalid column name: {self.name!r}")


@dataclass
class TableSchema:
    """A named, ordered collection of columns."""

    name: str
    columns: List[Column]

    def __post_init__(self) -> None:
        seen = set()
        for column in self.columns:
            lowered = column.name.lower()
            if lowered in seen:
                raise SQLAnalysisError(
                    f"duplicate column {column.name!r} in table {self.name!r}"
                )
            seen.add(lowered)

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def index_of(self, column_name: str) -> int:
        """Case-insensitive position lookup."""
        lowered = column_name.lower()
        for i, column in enumerate(self.columns):
            if column.name.lower() == lowered:
                return i
        raise SQLAnalysisError(
            f"no column {column_name!r} in table {self.name!r} "
            f"(has: {self.column_names})"
        )

    def column(self, column_name: str) -> Column:
        return self.columns[self.index_of(column_name)]

    def type_of(self, column_name: str) -> Optional[SQLType]:
        """The column's type, or ``None`` when the column is unknown.

        The non-raising companion of :meth:`column`, for analyses that
        collect findings instead of aborting on the first error.
        """
        lowered = column_name.lower()
        for column in self.columns:
            if column.name.lower() == lowered:
                return column.sql_type
        return None

    def has_column(self, column_name: str) -> bool:
        lowered = column_name.lower()
        return any(c.name.lower() == lowered for c in self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    @classmethod
    def build(cls, name: str, specs: Sequence[Tuple[str, SQLType]]) -> "TableSchema":
        """Build a schema from (name, type) pairs."""
        return cls(name=name, columns=[Column(n, t) for n, t in specs])
