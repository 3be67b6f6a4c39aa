"""Budgeted profiling: test the pairs the predictor ranks highest."""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.errors import ReproError
from repro.profiling.corpus import ColumnPair, SchemaCorpus, measure_correlation

#: measured |Pearson r| at which a pair counts as truly correlated
THRESHOLD = 0.7


def profiling_recall_at_budget(
    predictor,
    corpus: SchemaCorpus,
    pairs: Sequence[ColumnPair],
    budget: int,
) -> Tuple[float, int]:
    """Scan the ``budget`` highest-ranked pairs; return (recall, found).

    A "true correlation" is a pair whose *measured* |Pearson r| on the
    actual data is at least ``THRESHOLD``. Recall is the fraction of those
    the budgeted profiler discovers — the metric that shows why
    name-based prediction saves scans on wide tables.
    """
    if budget <= 0:
        raise ReproError("profiling budget must be positive")
    truly_correlated = {
        (p.left_name, p.right_name)
        for p in pairs
        if measure_correlation(corpus, p) >= THRESHOLD
    }
    if not truly_correlated:
        raise ReproError("no measured correlations above the threshold")
    ranked = sorted(pairs, key=lambda p: -predictor.probability(p))
    found = 0
    for pair in ranked[:budget]:
        if (pair.left_name, pair.right_name) in truly_correlated:
            found += 1
    return found / len(truly_correlated), found
