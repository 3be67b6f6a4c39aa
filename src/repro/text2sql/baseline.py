"""A rule-based text-to-SQL baseline (pre-neural, NaLIR-style).

The translator matches question words against the schema lexicon
(table/column names), detects aggregate trigger words ("how many",
"average", "highest"), comparison phrases ("greater than"), and literal
values. It handles the transparent phrasings well but — like the
keyword systems it emulates — degrades on paraphrases and on
compositional shapes (grouping, joins), which is the gap the tutorial's
LM-based translators close.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.text2sql.workload import Text2SQLWorkload

_COMPARISONS = [
    ("greater than", ">"),
    ("more than", ">"),
    ("above", ">"),
    ("less than", "<"),
    ("below", "<"),
    ("at least", ">="),
    ("at most", "<="),
]

_AGGREGATES = [
    ("average", "avg"),
    ("total number", None),  # handled as COUNT
    ("total", "sum"),
    ("highest", "max"),
    ("top", "max"),
    ("lowest", "min"),
    ("how many", None),
    ("count", None),
]


class RuleBasedTranslator:
    """Keyword-matching semantic parser over one workload's schema."""

    def __init__(self, workload: Text2SQLWorkload) -> None:
        self.workload = workload
        self.lexicon = workload.value_lexicon()

    def translate(self, question: str) -> str:
        """Produce linearized SQL for a question (best effort)."""
        q = question.lower()
        table = self._detect_table(q)
        columns = self.workload.columns_of(table)
        num_cols = [c for c in columns if c in self.workload.num_cols]
        mentioned_cols = [c for c in columns if re.search(rf"\b{c}\b", q)]
        where = self._detect_predicate(q, table)

        # Aggregates and counting.
        agg = self._detect_aggregate(q)
        if agg == "count":
            group_col = self._detect_group(q, table)
            if group_col:
                return self._assemble(
                    f"{group_col} , count ( * )", table, where, group=group_col
                )
            return self._assemble("count ( * )", table, where)
        if agg in ("avg", "sum", "max", "min"):
            target = next((c for c in mentioned_cols if c in num_cols), None)
            if target is not None:
                # "highest X" with a requested name column is an argmax.
                name_request = next(
                    (c for c in mentioned_cols if c not in num_cols), None
                )
                if agg == "max" and name_request:
                    return (
                        f"select {name_request} from {table} "
                        f"order by {target} desc limit 1"
                    )
                group_col = self._detect_group(q, table)
                if group_col:
                    return self._assemble(
                        f"{group_col} , {agg} ( {target} )", table, where,
                        group=group_col,
                    )
                return self._assemble(f"{agg} ( {target} )", table, where)

        # Plain projection: first mentioned column, else the name column.
        projection = mentioned_cols[0] if mentioned_cols else self.workload.name_col
        return self._assemble(projection, table, where)

    # -- detection helpers ------------------------------------------------
    def _detect_table(self, q: str) -> str:
        for table in self.workload.tables:
            if re.search(rf"\b{table}\b", q):
                return table
        return self.workload.entity_table

    def _detect_aggregate(self, q: str) -> Optional[str]:
        for phrase, agg in _AGGREGATES:
            if phrase in q:
                return agg if agg is not None else "count"
        return None

    def _detect_group(self, q: str, table: str) -> Optional[str]:
        if "each" in q or "per" in q:
            for column in self.workload.columns_of(table):
                if column in self.workload.num_cols:
                    continue
                if re.search(rf"\b(each|per)\s+{column}\b", q):
                    return column
        return None

    def _detect_predicate(self, q: str, table: str) -> Optional[str]:
        columns = self.workload.columns_of(table)
        # Numeric comparison: "<col> ... <comparison phrase> <number>".
        for phrase, op in _COMPARISONS:
            match = re.search(rf"{phrase}\s+(\d+)", q)
            if match:
                value = match.group(1)
                target = next(
                    (
                        c for c in columns
                        if c in self.workload.num_cols and re.search(rf"\b{c}\b", q)
                    ),
                    None,
                )
                if target:
                    return f"{target} {op} {value}"
        # Categorical equality: a lexicon value mentioned verbatim.
        for column, values in self.lexicon.items():
            if column not in columns:
                continue
            for value in values:
                if re.search(rf"\b{re.escape(value)}\b", q):
                    return f"{column} = ' {value} '"
        return None

    @staticmethod
    def _assemble(
        head: str, table: str, where: Optional[str], group: Optional[str] = None
    ) -> str:
        sql = f"select {head} from {table}"
        if where:
            sql += f" where {where}"
        if group:
            sql += f" group by {group}"
        return sql
