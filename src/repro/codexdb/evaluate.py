"""CodexDB evaluation: success-at-k against the native engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import StaticAnalysisError
from repro.reliability.clock import VirtualClock
from repro.reliability.faults import FaultInjector, FaultProfile, FaultyCodex
from repro.reliability.retry import Retrier, RetryPolicy
from repro.sql import Database
from repro.codexdb.codegen import CodeGenOptions
from repro.codexdb.codex import CodexDB, SimulatedCodex


@dataclass
class CodexDBReport:
    """Aggregate metrics of a CodexDB evaluation run.

    Failed candidate attempts are broken down into programs the static
    analyzer rejected before execution (``rejected_static``) and
    programs that executed but crashed or returned wrong rows
    (``failed_runtime``) — the two call for different fixes: tighter
    generation versus better validation. Under fault injection,
    ``reliability`` carries what the serving channel did to us and what
    the retry layer did about it (injected fault counts, retries,
    backoff time, attempts lost after retries ran out).
    """

    total: int = 0
    succeeded: int = 0
    attempts_used: List[int] = field(default_factory=list)
    rejected_static: int = 0
    failed_runtime: int = 0
    rejected_queries: int = 0
    failed_transient: int = 0
    reliability: Optional[Dict[str, float]] = None
    serving: Optional[Dict[str, float]] = None

    @property
    def success_rate(self) -> float:
        return self.succeeded / self.total if self.total else 0.0

    @property
    def mean_attempts(self) -> float:
        return (
            sum(self.attempts_used) / len(self.attempts_used)
            if self.attempts_used
            else 0.0
        )


def evaluate_codexdb(
    db: Database,
    queries: Sequence[str],
    max_attempts: int = 4,
    error_rate: float = 0.3,
    seed: int = 0,
    unsafe_rate: float = 0.0,
    fault_profile: Optional[FaultProfile] = None,
    retry_policy: Optional[RetryPolicy] = None,
    codex: Optional[object] = None,
) -> CodexDBReport:
    """Run CodexDB over ``queries``; report success rate and retries.

    Queries that the SQL vetting pass rejects outright (unknown table or
    column, type mismatch) are counted in ``rejected_queries`` and never
    reach synthesis. With a ``fault_profile``, the Codex channel is
    wrapped in a seeded :class:`FaultInjector` and every request runs
    under retry/backoff on a deterministic virtual clock; the report
    then carries a ``reliability`` section.
    ``codex`` overrides the model channel entirely (e.g. a
    :class:`~repro.codexdb.codex.ClientCodex` over a hub engine); when
    it exposes ``serving_stats`` the report carries a ``serving``
    section with the engine's prefix-cache and batching counters.
    """
    if codex is None:
        codex = SimulatedCodex(
            error_rate=error_rate, seed=seed, unsafe_rate=unsafe_rate
        )
    retrier = None
    injector = None
    if fault_profile is not None:
        clock = VirtualClock()
        injector = FaultInjector(fault_profile, seed=seed, clock=clock)
        codex = FaultyCodex(codex, injector)
        retrier = Retrier(
            retry_policy if retry_policy is not None else RetryPolicy(),
            clock=clock,
            seed=seed,
        )
    system = CodexDB(db, codex, CodeGenOptions(), retrier=retrier)
    report = CodexDBReport()
    for sql in queries:
        report.total += 1
        try:
            result = system.run(sql, max_attempts=max_attempts)
        except StaticAnalysisError:
            report.rejected_queries += 1
            continue
        report.succeeded += int(result.succeeded)
        report.attempts_used.append(result.attempts)
        report.rejected_static += result.static_rejections
        report.failed_runtime += result.runtime_failures
        report.failed_transient += result.transient_failures
    serving_stats = getattr(codex, "serving_stats", None)
    if serving_stats is not None:
        report.serving = dict(serving_stats())
    if retrier is not None and injector is not None:
        report.reliability = {
            "retries": retrier.retries,
            "rate_limited": retrier.rate_limited,
            "backoff_seconds": retrier.backoff_seconds,
            "failed_transient": report.failed_transient,
            **{f"injected_{kind}": n for kind, n in injector.counts.items()},
        }
    return report
