"""Table schemas: ordered, typed columns."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

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
        #: lower-cased column name -> position (the columns never change)
        self.positions: Dict[str, int] = {}
        for i, column in enumerate(self.columns):
            lowered = column.name.lower()
            if lowered in self.positions:
                raise SQLAnalysisError(
                    f"duplicate column {column.name!r} in table {self.name!r}"
                )
            self.positions[lowered] = i

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def index_of(self, column_name: str) -> int:
        """Case-insensitive position lookup."""
        try:
            return self.positions[column_name.lower()]
        except KeyError:
            raise SQLAnalysisError(
                f"no column {column_name!r} in table {self.name!r} "
                f"(has: {self.column_names})"
            ) from None

    def column(self, column_name: str) -> Column:
        return self.columns[self.index_of(column_name)]

    def has_column(self, column_name: str) -> bool:
        return column_name.lower() in self.positions

    def __len__(self) -> int:
        return len(self.columns)

    @classmethod
    def build(cls, name: str, specs: Sequence[Tuple[str, SQLType]]) -> "TableSchema":
        """Build a schema from (name, type) pairs."""
        return cls(name=name, columns=[Column(n, t) for n, t in specs])
