"""Seeded, deterministic fault injection for the model-serving path.

A :class:`FaultInjector` turns a perfect in-process backend into the
API practitioners actually face (Section 2.4): rate limits with a
``retry-after``, transient 5xx-style server errors, in-flight request
timeouts, and completions that come back truncated or garbled. Every
decision flows from one :class:`~repro.utils.rng.SeededRNG`, so a fault
profile plus a seed replays the exact same failure sequence — the whole
resilience layer is testable without flakiness.

:class:`FaultyCompletionClient` and :class:`FaultyCodex` wrap the two
backends downstream code talks to (the OpenAI-style
:class:`~repro.api.client.CompletionClient` and CodexDB's simulated
Codex) behind the same interfaces, so consumers cannot tell a faulty
channel from a healthy one except by the errors it raises.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import (
    RateLimitError,
    ReproError,
    RequestTimeoutError,
    TransientError,
)
from repro.reliability.clock import Clock
from repro.utils.rng import SeededRNG


@dataclass(frozen=True)
class FaultProfile:
    """Rates and shapes of injected faults.

    ``rate_limit_every`` injects *periodic* quota exhaustion (every Nth
    request, 0 = never), mirroring providers that enforce fixed request
    windows. ``latency`` is the simulated service time charged to the
    clock per attempt, so deadline budgets see time pass even on success.
    """

    transient_rate: float = 0.0
    timeout_rate: float = 0.0
    garble_rate: float = 0.0
    rate_limit_every: int = 0
    retry_after: float = 1.0
    latency: float = 0.0

    def __post_init__(self) -> None:
        for name in ("transient_rate", "timeout_rate", "garble_rate"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ReproError(f"{name} must be in [0, 1), got {value}")
        if self.rate_limit_every < 0:
            raise ReproError("rate_limit_every must be >= 0")
        if self.retry_after < 0 or self.latency < 0:
            raise ReproError("retry_after and latency must be >= 0")


#: a profile that injects nothing (for overhead measurements)
FAULT_FREE = FaultProfile()


class FaultInjector:
    """Deterministically decide, per request, which fault (if any) fires."""

    def __init__(
        self,
        profile: FaultProfile = FAULT_FREE,
        seed: int = 0,
        clock: Optional[Clock] = None,
    ) -> None:
        self.profile = profile
        self.clock = clock
        self._rng = SeededRNG(seed).spawn("faults")
        self.requests = 0
        #: injected-fault counts by kind
        self.counts: Dict[str, int] = {
            "rate_limit": 0, "transient": 0, "timeout": 0, "garbled": 0,
        }

    def before_request(self, label: str = "request") -> None:
        """Charge latency, then maybe raise an injected failure."""
        self.requests += 1
        if self.profile.latency and self.clock is not None:
            self.clock.sleep(self.profile.latency)
        every = self.profile.rate_limit_every
        if every and self.requests % every == 0:
            self.counts["rate_limit"] += 1
            raise RateLimitError(
                f"rate limit injected on {label} (request #{self.requests})",
                retry_after=self.profile.retry_after,
            )
        if self._rng.coin(self.profile.timeout_rate):
            self.counts["timeout"] += 1
            raise RequestTimeoutError(
                f"timeout injected on {label} (request #{self.requests})"
            )
        if self._rng.coin(self.profile.transient_rate):
            self.counts["transient"] += 1
            raise TransientError(
                f"server error injected on {label} (request #{self.requests})"
            )

    def maybe_garble(self, text: str) -> Tuple[str, bool]:
        """Truncate-and-corrupt ``text`` at the profile's garble rate."""
        if not self._rng.coin(self.profile.garble_rate):
            return text, False
        self.counts["garbled"] += 1
        if not text:
            return text, True
        cut = self._rng.randint(0, len(text))
        return text[:cut].rstrip(), True


class FaultyCompletionClient:
    """A :class:`~repro.api.client.CompletionClient` behind a bad network.

    Same ``complete()`` interface; injected errors surface as the
    transient taxonomy, and garbled responses come back with
    ``finish_reason == "garbled"`` and truncated text.
    """

    def __init__(self, inner, injector: FaultInjector) -> None:
        self.inner = inner
        self.injector = injector

    @property
    def hub(self):
        return self.inner.hub

    @property
    def stats(self):
        return self.inner.stats

    @property
    def requests_served(self) -> int:
        return self.inner.requests_served

    def complete(self, engine: str, prompt: str, **kwargs):
        self.injector.before_request(engine)
        return self._garble_response(self.inner.complete(engine, prompt, **kwargs))

    def complete_batch(self, engine: str, prompts, **kwargs):
        """Batched completion over the same bad network.

        One injected-fault decision guards the whole batch (a batched
        call is one request on the wire); garbling still strikes each
        returned choice independently.
        """
        self.injector.before_request(engine)
        batch = getattr(self.inner, "complete_batch", None)
        if batch is None:
            responses = [self.inner.complete(engine, p, **kwargs) for p in prompts]
        else:
            responses = batch(engine, list(prompts), **kwargs)
        return [self._garble_response(response) for response in responses]

    def _garble_response(self, response):
        choices = []
        any_garbled = False
        for choice in response.choices:
            text, garbled = self.injector.maybe_garble(choice.text)
            any_garbled |= garbled
            if garbled:
                choice = dataclasses.replace(
                    choice, text=text, finish_reason="garbled"
                )
            choices.append(choice)
        if not any_garbled:
            return response
        return dataclasses.replace(response, choices=choices)


class FaultyCodex:
    """CodexDB's simulated Codex behind the same bad network.

    Garbling truncates the candidate program at a random line — exactly
    the half-finished completions long generations are prone to — which
    downstream static analysis rejects before execution.
    """

    def __init__(self, inner, injector: FaultInjector) -> None:
        self.inner = inner
        self.injector = injector

    @property
    def samples_served(self) -> int:
        return self.inner.samples_served

    def sample_program(self, sql: str, options, feedback=None) -> str:
        self.injector.before_request("codex")
        return self._garble_code(self.inner.sample_program(sql, options, feedback=feedback))

    def sample_programs(self, sql: str, options, k: int, feedback=None) -> list:
        """Draw ``k`` candidates behind one injected-fault decision."""
        self.injector.before_request("codex")
        codes = self.inner.sample_programs(sql, options, k, feedback=feedback)
        return [self._garble_code(code) for code in codes]

    def _garble_code(self, code: str) -> str:
        garbled_code, garbled = self.injector.maybe_garble(code)
        if not garbled:
            return code
        # Cut at a line boundary so the truncation looks like a stopped
        # generation rather than random byte noise.
        kept_lines = garbled_code.count("\n")
        return "\n".join(code.splitlines()[: max(1, kept_lines)])
