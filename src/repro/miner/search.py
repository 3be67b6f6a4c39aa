"""Black-box search over summary compositions (the BABOONS core).

A summary is a set of ``k`` facts with distinct (filter, metric)
dimensions. The objective is total goal-relevance as judged by a scorer
whose calls are expensive (each is an LM evaluation) — so strategies
are compared by both summary quality and scorer-call budget:

* :func:`exhaustive_summary` — score everything, pick the best
  (the quality ceiling, maximum cost);
* :func:`greedy_summary`    — score everything once, then greedily
  fill slots (same cost here, canonical quality);
* :func:`sampled_summary`   — score only a random subset (the budget
  regime black-box optimization targets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.miner.facts import DataFact
from repro.utils.rng import SeededRNG


@dataclass
class SummaryResult:
    """A selected summary plus its cost accounting."""

    facts: List[DataFact]
    total_score: float
    scorer_calls: int

    def render(self) -> str:
        return "\n".join(f"- {fact.sentence()}" for fact in self.facts)


def summary_relevance(scorer, goal: str, facts: Sequence[DataFact]) -> float:
    """Total relevance of a fact set (fresh scorer calls)."""
    return sum(scorer.score(goal, fact) for fact in facts)


def _select_diverse(
    scored: List[Tuple[float, DataFact]], k: int
) -> Tuple[List[DataFact], float]:
    """Pick the top-k facts with pairwise distinct dimensions."""
    chosen: List[DataFact] = []
    used: Set[Tuple[str, str]] = set()
    total = 0.0
    for score, fact in sorted(scored, key=lambda pair: -pair[0]):
        if fact.dimensions in used:
            continue
        chosen.append(fact)
        used.add(fact.dimensions)
        total += score
        if len(chosen) == k:
            break
    return chosen, total


def greedy_summary(
    scorer, goal: str, facts: Sequence[DataFact], k: int = 3
) -> SummaryResult:
    """Score every fact once; fill the summary greedily by score."""
    if k <= 0:
        raise ReproError("summary size must be positive")
    calls_before = scorer.calls
    scored = [(scorer.score(goal, fact), fact) for fact in facts]
    chosen, total = _select_diverse(scored, k)
    return SummaryResult(
        facts=chosen, total_score=total, scorer_calls=scorer.calls - calls_before
    )


def exhaustive_summary(
    scorer, goal: str, facts: Sequence[DataFact], k: int = 3
) -> SummaryResult:
    """Alias of the full-scoring strategy (the quality ceiling)."""
    return greedy_summary(scorer, goal, facts, k)


def sampled_summary(
    scorer,
    goal: str,
    facts: Sequence[DataFact],
    k: int = 3,
    budget: int = 10,
    seed: int = 0,
) -> SummaryResult:
    """Score only ``budget`` randomly sampled facts, then select.

    The cheap strategy a black-box optimizer must beat: with a small
    budget it often misses the goal-relevant facts entirely.
    """
    if budget <= 0:
        raise ReproError("scoring budget must be positive")
    rng = SeededRNG(seed)
    sample = rng.sample(list(facts), min(budget, len(facts)))
    calls_before = scorer.calls
    scored = [(scorer.score(goal, fact), fact) for fact in sample]
    chosen, total = _select_diverse(scored, k)
    return SummaryResult(
        facts=chosen, total_score=total, scorer_calls=scorer.calls - calls_before
    )
