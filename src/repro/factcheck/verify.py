"""Claim verification: interpret, execute, compare, and report verdicts."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.factcheck.claims import Claim, ClaimWorkload
from repro.factcheck.queries import CandidateQuery, enumerate_candidates


class Verdict(enum.Enum):
    """The outcome of verifying one claim against the data."""

    SUPPORTED = "SUPPORTED"
    REFUTED = "REFUTED"


@dataclass
class VerificationResult:
    """The verdict, the query used, and the computed value."""

    claim: Claim
    verdict: Verdict
    query: CandidateQuery
    computed_value: float

    @property
    def correct(self) -> bool:
        """Did the verdict agree with the gold truthfulness label?"""
        return (self.verdict is Verdict.SUPPORTED) == self.claim.truthful

    @property
    def interpreted_correctly(self) -> bool:
        """Did the ranker pick the claim's gold interpretation?"""
        return (
            self.query.agg == self.claim.agg
            and self.query.column == self.claim.column
            and self.query.filter_value == self.claim.filter_value
        )


class FactChecker:
    """Verifies claims: rank interpretations, execute the best, compare.

    ``tolerance`` is the relative error under which a claimed value
    counts as matching the computed one (claims often round).
    """

    def __init__(self, workload: ClaimWorkload, ranker, tolerance: float = 0.02) -> None:
        self.workload = workload
        self.ranker = ranker
        self.tolerance = tolerance
        self._candidates = enumerate_candidates(workload)

    def verify(self, claim: Claim) -> VerificationResult:
        """Produce a verdict for one claim."""
        best = self.ranker.best(claim.text, self._candidates)
        computed = best.execute(self.workload)
        matches = self._values_match(claim.claimed_value, computed)
        verdict = Verdict.SUPPORTED if matches else Verdict.REFUTED
        return VerificationResult(
            claim=claim, verdict=verdict, query=best, computed_value=computed
        )

    def _values_match(self, claimed: float, computed: float) -> bool:
        if computed == 0.0:
            return abs(claimed) < 1e-9
        return abs(claimed - computed) / abs(computed) <= self.tolerance


def evaluate_checker(
    checker: FactChecker, claims: Sequence[Claim]
) -> Dict[str, float]:
    """Verdict accuracy and interpretation accuracy over ``claims``."""
    results = [checker.verify(claim) for claim in claims]
    return {
        "verdict_accuracy": sum(r.correct for r in results) / len(results),
        "interpretation_accuracy": (
            sum(r.interpreted_correctly for r in results) / len(results)
        ),
    }
