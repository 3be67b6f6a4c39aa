"""Row serialization for LM consumption (the Ditto design choice).

Two styles are provided — the benchmark ablates them:

* ``attribute`` — ``col brand val northwind corp col title val ...``
  (Ditto's tagged serialization, giving the model column structure);
* ``plain`` — the bare values concatenated.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import WrangleError

STYLES = ("attribute", "plain")


def serialize_record(record: Dict[str, str], style: str = "attribute") -> str:
    """Render one record as a token-friendly string."""
    if style == "attribute":
        parts = []
        for column, value in record.items():
            parts.append(f"col {column} val {value}".strip())
        return " ".join(parts)
    if style == "plain":
        return " ".join(v for v in record.values() if v)
    raise WrangleError(f"unknown serialization style {style!r}; use {STYLES}")


def serialize_pair(left: Dict[str, str], right: Dict[str, str]) -> str:
    """Render a record pair with a separator (classifier input)."""
    return f"{serialize_record(left)} sep {serialize_record(right)}"
