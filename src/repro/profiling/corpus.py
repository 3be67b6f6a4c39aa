"""Synthetic schemas with name-predictable correlations, plus real data.

Each schema draws *concepts*; a concept contributes a base column and,
sometimes, a derived column whose name is a morphological variant
(``price`` -> ``total_price``, ``discounted_price``). Derived columns
are generated as noisy functions of their base, so (base, derived)
pairs truly correlate in the data, while cross-concept pairs do not.
The column *names* therefore carry the signal a language model can
learn — and that the measured data can verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.errors import ReproError
from repro.utils.rng import SeededRNG

#: data rows behind each generated schema
ROWS_PER_SCHEMA = 60

# Synonym groups: two columns drawn from the same group describe the
# same quantity under different names — they correlate in the data but
# share no name tokens, which is exactly what separates an LM that has
# learned word semantics from a string-overlap heuristic.
_SYNONYM_GROUPS = [
    ["price", "cost", "amount_due"],
    ["weight", "mass", "load"],
    ["salary", "wage", "pay"],
    ["age", "years", "seniority"],
    ["duration", "runtime", "elapsed"],
    ["distance", "mileage", "range"],
    ["score", "points", "grade"],
    ["speed", "velocity", "pace"],
]
_NOISE_COLUMNS = ["row_id", "batch_code", "shard_key", "checksum"]


@dataclass(frozen=True)
class ColumnPair:
    """A candidate pair with gold label and (optionally) measured data."""

    left_name: str
    right_name: str
    correlated: bool

    def text(self) -> str:
        """The classifier input for this pair."""
        left = self.left_name.replace("_", " ")
        right = self.right_name.replace("_", " ")
        return f"first column {left} second column {right}"


@dataclass
class SchemaCorpus:
    """Column pairs plus per-column data arrays for verification."""

    pairs: List[ColumnPair] = field(default_factory=list)
    data: Dict[str, np.ndarray] = field(default_factory=dict)


def generate_schema_corpus(
    num_schemas: int = 12,
    seed: int = 0,
) -> SchemaCorpus:
    """Build a corpus of labeled column pairs with backing data."""
    rng = SeededRNG(seed)
    corpus = SchemaCorpus()
    for schema_index in range(num_schemas):
        groups = rng.sample(_SYNONYM_GROUPS, 3)
        gen = rng.spawn(f"schema{schema_index}").generator
        columns: Dict[str, np.ndarray] = {}
        partner_of: Dict[str, str] = {}
        for group in groups:
            first, second = rng.sample(group, 2)
            first_name = f"{first}_{schema_index}"
            second_name = f"{second}_{schema_index}"
            base = gen.normal(50, 15, size=ROWS_PER_SCHEMA)
            noise = gen.normal(0, 4, size=ROWS_PER_SCHEMA)
            columns[first_name] = base
            columns[second_name] = base * rng.uniform(1.2, 3.0) + noise
            partner_of[first_name] = second_name
            partner_of[second_name] = first_name
        noise_name = f"{rng.choice(_NOISE_COLUMNS)}_{schema_index}"
        columns[noise_name] = gen.normal(0, 1, size=ROWS_PER_SCHEMA)

        names = list(columns)
        for i, left in enumerate(names):
            for right in names[i + 1:]:
                correlated = partner_of.get(left) == right
                corpus.pairs.append(
                    ColumnPair(left_name=left, right_name=right, correlated=correlated)
                )
        corpus.data.update(columns)
    if not corpus.pairs:
        raise ReproError("corpus generation produced no pairs")
    return corpus


def measure_correlation(corpus: SchemaCorpus, pair: ColumnPair) -> float:
    """|Pearson correlation| measured on the actual data (the scan)."""
    left = corpus.data[pair.left_name]
    right = corpus.data[pair.right_name]
    if left.std() == 0 or right.std() == 0:
        return 0.0
    return float(abs(np.corrcoef(left, right)[0, 1]))
