"""Exception hierarchy for the ``repro`` package.

All library-raised exceptions derive from :class:`ReproError`, so callers
can catch the whole family with one ``except`` clause while still being
able to discriminate the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class TokenizerError(ReproError):
    """Raised for tokenizer misuse (unknown tokens, untrained vocab, ...)."""


class ShapeError(ReproError):
    """Raised when tensor shapes are incompatible for an autograd op."""


class ModelError(ReproError):
    """Raised for invalid model configurations or checkpoint mismatches."""


class CorruptCheckpointError(ModelError):
    """A model checkpoint failed its integrity checks.

    Raised when a ``.npz`` checkpoint is truncated, garbled, fails its
    embedded SHA-256 payload digest, or has the wrong internal schema —
    always instead of surfacing raw numpy/JSON/zipfile exceptions.
    """


class TrainingError(ReproError):
    """Raised for invalid training setups (empty datasets, bad splits)."""


class GenerationError(ReproError):
    """Raised when text generation is configured inconsistently."""


class PromptError(ReproError):
    """Raised for malformed prompt templates or unparsable completions."""


class SQLError(ReproError):
    """Base class for all SQL-engine errors."""


class SQLSyntaxError(SQLError):
    """Raised when a SQL string cannot be lexed or parsed."""


class SQLAnalysisError(SQLError):
    """Raised when a parsed query references unknown tables or columns."""


class SQLBindError(SQLAnalysisError):
    """A column or table name in a SELECT that its FROM cannot resolve.

    ``rule`` names the kind, as the static checker reports it:
    ``unknown-column``, ``unknown-alias`` or ``ambiguous-column``.
    """

    def __init__(self, rule: str, message: str) -> None:
        super().__init__(message)
        self.rule = rule


class SQLExecutionError(SQLError):
    """Raised when a valid plan fails at runtime (e.g. type mismatch)."""


class CatalogError(SQLError):
    """Raised for catalog misuse (duplicate tables, missing tables)."""


class Text2SQLError(ReproError):
    """Raised when NL-to-SQL translation cannot produce a valid query."""


class WrangleError(ReproError):
    """Raised for invalid data-wrangling task configurations."""


class FactCheckError(ReproError):
    """Raised when a claim cannot be compiled into verification queries."""


class TuningError(ReproError):
    """Raised for invalid tuning sessions or unknown knobs."""


class CodexDBError(ReproError):
    """Raised when plan synthesis or validation fails in CodexDB."""


class StaticAnalysisError(CodexDBError):
    """Raised when static analysis rejects a generated artifact.

    Carries the individual analyzer findings so callers can report them
    (or feed them back into regeneration). Subclasses
    :class:`CodexDBError` so CodexDB's generate/validate/retry loop
    treats a statically rejected candidate like any other failed one,
    while still letting reports distinguish "rejected before execution"
    from "crashed at runtime".
    """

    def __init__(self, message: str, findings=()) -> None:
        super().__init__(message)
        #: the :class:`repro.analysis.Finding` list that triggered the error
        self.findings = list(findings)


class FuelExhaustedError(CodexDBError):
    """A sandboxed program ran out of its execution fuel budget.

    The flow-sensitive analyzer marks loops whose trip count it cannot
    bound with an ``unbounded-work`` warning; instead of rejecting such
    programs outright, the sandbox runs them under a line-event fuel
    limit and raises this when the budget is spent. Provably infinite
    loops (``unbounded-loop`` errors) are still rejected statically and
    never execute at all.
    """

    def __init__(self, message: str, fuel: int = 0) -> None:
        super().__init__(message)
        #: the budget (in traced line events) that was exhausted
        self.fuel = int(fuel)


class NeuralDBError(ReproError):
    """Raised for invalid NeuralDB operations."""


class TransientError(ReproError):
    """A retryable serving failure (the 5xx of the simulated API).

    The resilience layer (:mod:`repro.reliability`) treats any
    ``TransientError`` as retry-with-backoff material; every other
    :class:`ReproError` is permanent and propagates immediately.
    """


class RateLimitError(TransientError):
    """The serving path refused a request for quota reasons (a 429).

    ``retry_after`` carries the server-advertised wait in seconds;
    retry loops must not come back sooner.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class RequestTimeoutError(TransientError):
    """A single request attempt timed out in flight (retryable)."""


class GatewayOverloadError(RateLimitError):
    """The serving gateway shed this request at admission (a 429).

    Load shedding is the gateway keeping accepted-request latency
    bounded by refusing excess work *early* instead of queueing it to
    death. ``reason`` says which guard fired: ``"tenant-quota"`` (the
    tenant's token bucket is empty) or ``"queue-full"`` (the bounded
    admission queue is at capacity). Subclasses
    :class:`RateLimitError`, so retry loops treat a shed exactly like
    a provider 429 — back off at least ``retry_after`` and try again.
    """

    def __init__(
        self, message: str, reason: str = "queue-full", retry_after: float = 1.0
    ) -> None:
        super().__init__(message, retry_after=retry_after)
        self.reason = reason


class RequestCancelledError(ReproError):
    """The request was cancelled mid-stream (client disconnect).

    Terminal for the request: its partial tokens were discarded and its
    batch slot was handed to queued work.
    """


class DeadlineExceededError(ReproError):
    """The caller's total time budget for a request ran out.

    Unlike :class:`RequestTimeoutError` (one attempt, retryable), this
    is terminal for the request: retrying would overspend the budget.
    """


class CircuitOpenError(ReproError):
    """A circuit breaker is open and the request was never attempted."""


class ClusterError(ReproError):
    """Base class for sharded-cluster errors (:mod:`repro.sql.cluster`)."""


class ShardUnavailableError(ClusterError):
    """A statement needed a shard whose primary is down.

    Raised instead of silently dropping the write (or serving a read
    the caller did not mark as stale-tolerant) when a shard has lost
    its primary and automatic failover is disabled or has no replica
    left to promote. ``shard`` identifies the partition.
    """

    def __init__(self, message: str, shard: int = -1) -> None:
        super().__init__(message)
        self.shard = int(shard)


class DurabilityError(ReproError):
    """Base class for durable-storage errors (:mod:`repro.durability`)."""


class ReplicationError(DurabilityError):
    """Log shipping between a primary and its replica went wrong.

    Covers receive-side rejections (a fully framed shipped record that
    fails its CRC — corruption, never applied) and protocol violations
    (frames arriving out of LSN order). Torn chunks are *not* errors:
    the replica buffers them until the remaining bytes arrive.
    """


class WALCorruptionError(DurabilityError):
    """A write-ahead log record failed its checksum or framing checks.

    Torn *tails* (a record cut short by a crash mid-append) are expected
    and repaired silently; this error means bytes of a fully written
    record were altered afterwards — real corruption, not a torn write.
    """


class SnapshotCorruptionError(DurabilityError):
    """A database snapshot failed its SHA-256 integrity check."""


class SimulatedCrash(DurabilityError):
    """An injected process crash from a :class:`~repro.durability.CrashInjector`.

    Raised inside the durability I/O layer at named crash points so
    recovery tests can kill the "process" at any byte boundary that
    matters. Carries the crash point and which occurrence of it fired.
    """

    def __init__(self, point: str, occurrence: int) -> None:
        super().__init__(
            f"simulated crash at point {point!r} (occurrence #{occurrence})"
        )
        self.point = point
        self.occurrence = occurrence
