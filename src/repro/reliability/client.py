"""The hardened completion client: retry, break, throttle, degrade.

:class:`ResilientClient` wraps any object with the
:class:`~repro.api.client.CompletionClient` interface and layers on, in
order per request:

1. a token-bucket rate limiter (self-throttle under the provider quota);
2. a per-engine circuit breaker (fail fast on a dead engine);
3. retry with exponential backoff + decorrelated jitter, honoring
   server-advertised ``retry-after`` and a per-request deadline budget;
4. a fallback engine chain (large engine -> small engine), and finally
5. an optional non-LLM baseline that produces a *degraded* answer so
   the serving path keeps answering even with every engine down.

All time flows through a :class:`~repro.reliability.clock.Clock` and all
jitter through a seeded RNG, so one seed replays the exact same
retries, fallbacks, and breaker trips.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # runtime import is deferred to break the cycle with
    from repro.api.client import CompletionResponse  # repro.api -> serving

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ReproError,
    TransientError,
)
from repro.reliability.breaker import CircuitBreaker
from repro.reliability.clock import Clock, SystemClock
from repro.reliability.ratelimit import TokenBucket
from repro.reliability.retry import Retrier, RetryPolicy

#: engine name reported on degraded (baseline-produced) responses
DEGRADED_ENGINE = "baseline"


@dataclass(frozen=True)
class ReliabilityMetrics:
    """What the resilience layer did, in one deterministic snapshot."""

    requests: int = 0
    successes: int = 0
    retries: int = 0
    rate_limited: int = 0
    backoff_seconds: float = 0.0
    throttle_seconds: float = 0.0
    breaker_trips: int = 0
    breaker_short_circuits: int = 0
    fallbacks: int = 0
    degraded_answers: int = 0
    deadline_exceeded: int = 0
    exhausted: int = 0

    def as_dict(self) -> Dict[str, float]:
        return asdict(self)


class ResilientClient:
    """A completion client that survives a misbehaving backend."""

    def __init__(
        self,
        client,
        policy: RetryPolicy = RetryPolicy(),
        fallback_engines: Optional[Dict[str, Sequence[str]]] = None,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        requests_per_second: Optional[float] = None,
        burst: Optional[float] = None,
        baseline: Optional[Callable[[str], str]] = None,
        clock: Optional[Clock] = None,
        seed: int = 0,
    ) -> None:
        self.client = client
        self.policy = policy
        self.clock: Clock = clock if clock is not None else SystemClock()
        self.baseline = baseline
        self._fallbacks = {
            engine: list(chain) for engine, chain in (fallback_engines or {}).items()
        }
        self._failure_threshold = failure_threshold
        self._reset_timeout = reset_timeout
        self._retrier = Retrier(policy, clock=self.clock, seed=seed)
        self._limiter = (
            TokenBucket(requests_per_second, burst, clock=self.clock)
            if requests_per_second is not None
            else None
        )
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._requests = 0
        self._successes = 0
        self._fallback_answers = 0
        self._degraded_answers = 0
        self._short_circuits = 0
        self._deadline_exceeded = 0
        self._exhausted = 0

    # -- introspection -----------------------------------------------------
    def breaker(self, engine: str) -> CircuitBreaker:
        """The (lazily created) circuit breaker guarding ``engine``."""
        if engine not in self._breakers:
            self._breakers[engine] = CircuitBreaker(
                failure_threshold=self._failure_threshold,
                reset_timeout=self._reset_timeout,
                clock=self.clock,
            )
        return self._breakers[engine]

    @property
    def metrics(self) -> ReliabilityMetrics:
        return ReliabilityMetrics(
            requests=self._requests,
            successes=self._successes,
            retries=self._retrier.retries,
            rate_limited=self._retrier.rate_limited,
            backoff_seconds=self._retrier.backoff_seconds,
            throttle_seconds=self._limiter.waited if self._limiter else 0.0,
            breaker_trips=sum(b.trips for b in self._breakers.values()),
            breaker_short_circuits=self._short_circuits,
            fallbacks=self._fallback_answers,
            degraded_answers=self._degraded_answers,
            deadline_exceeded=self._deadline_exceeded,
            exhausted=self._exhausted,
        )

    def chain_for(self, engine: str) -> List[str]:
        """The engines tried for a request, in degradation order."""
        return [engine] + [
            fallback
            for fallback in self._fallbacks.get(engine, [])
            if fallback != engine
        ]

    # -- the request path --------------------------------------------------
    def complete(self, engine: str, prompt: str, **kwargs) -> CompletionResponse:
        """Complete ``prompt``, degrading across the engine chain.

        Raises :class:`~repro.errors.CircuitOpenError` only when every
        engine's breaker refused and no baseline is configured;
        otherwise the last engine's terminal error propagates.
        """
        self._requests += 1
        anchor = self.clock.monotonic()
        last_error: Optional[ReproError] = None
        for position, candidate in enumerate(self.chain_for(engine)):
            breaker = self.breaker(candidate)
            if not breaker.allow():
                self._short_circuits += 1
                continue
            try:
                response = self._retrier.call(
                    lambda: self._attempt(candidate, prompt, kwargs), start=anchor
                )
            except DeadlineExceededError as exc:
                breaker.record_failure()
                self._deadline_exceeded += 1
                last_error = exc
                break  # the budget is spent; no point trying fallbacks
            except TransientError as exc:
                breaker.record_failure()
                last_error = exc
                continue
            breaker.record_success()
            self._successes += 1
            if position:
                self._fallback_answers += 1
            return response
        return self._degrade(engine, prompt, last_error)

    def complete_batch(
        self, engine: str, prompts: Sequence[str], **kwargs
    ) -> List[CompletionResponse]:
        """Complete many prompts, batched when the stack allows it.

        The whole batch is attempted as *one unit* through the primary
        engine's breaker and the retrier (a batched call is one request
        to the provider). Any terminal failure falls back to the
        per-prompt :meth:`complete` path, which carries the full fallback
        chain and baseline degradation, so batching never weakens
        reliability.
        """
        prompts = list(prompts)
        if not prompts:
            return []
        breaker = self.breaker(engine)
        if breaker.allow():
            anchor = self.clock.monotonic()
            try:
                responses = self._retrier.call(
                    lambda: self._attempt_batch(engine, prompts, kwargs),
                    start=anchor,
                )
            except DeadlineExceededError:
                breaker.record_failure()
                self._deadline_exceeded += 1
            except TransientError:
                breaker.record_failure()
            else:
                breaker.record_success()
                self._requests += len(prompts)
                self._successes += len(prompts)
                return list(responses)
        else:
            self._short_circuits += 1
        return [self.complete(engine, prompt, **kwargs) for prompt in prompts]

    def _attempt(self, engine: str, prompt: str, kwargs: dict) -> CompletionResponse:
        if self._limiter is not None:
            self._limiter.acquire()
        return self.client.complete(engine, prompt, **kwargs)

    def _attempt_batch(
        self, engine: str, prompts: List[str], kwargs: dict
    ) -> List[CompletionResponse]:
        if self._limiter is not None:
            self._limiter.acquire()
        return self.client.complete_batch(engine, prompts, **kwargs)

    def _degrade(
        self, engine: str, prompt: str, last_error: Optional[ReproError]
    ) -> CompletionResponse:
        if self.baseline is not None:
            # Imported here, not at module top: repro.api.client imports
            # repro.serving, whose scheduler imports repro.reliability —
            # a module-level import would close that cycle.
            from repro.api.client import CompletionChoice, CompletionResponse, Usage

            self._degraded_answers += 1
            text = self.baseline(prompt)
            return CompletionResponse(
                engine=DEGRADED_ENGINE,
                choices=[
                    CompletionChoice(text=text, index=0, finish_reason="degraded")
                ],
                usage=Usage(prompt_tokens=0, completion_tokens=0),
            )
        self._exhausted += 1
        if last_error is not None:
            raise last_error
        raise CircuitOpenError(
            f"every engine in the chain for {engine!r} has an open circuit"
        )
