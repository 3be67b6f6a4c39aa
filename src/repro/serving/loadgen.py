"""Open-loop async load generation against a serving gateway.

A *closed-loop* client (send, wait, send again) self-throttles: when the
server slows down, the offered load drops, and saturation hides. The
load generator here is **open-loop**: arrivals fire on a seeded Poisson
(exponential-interarrival) schedule regardless of how the gateway is
coping, which is the arrival process under which admission control and
load shedding actually earn their keep — offered load past capacity
*must* show up as shed requests, not as quietly stretching arrival gaps.

:func:`run_open_loop` drives one arrival rate for a fixed duration and
reports :class:`LoadReport` (p50/p99 latency of *accepted* work, goodput,
shed rate, queue-wait share); :func:`sweep` repeats it across a list of
rates to trace the saturation curve that the ``BENCH_gateway`` benchmark
commits. Everything runs on an :class:`~repro.reliability.aclock.AsyncClock`
— under an :class:`~repro.reliability.aclock.AsyncVirtualClock` a
minute-long sweep takes milliseconds and is bit-for-bit reproducible
from its seed.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Callable, List, Sequence

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    GatewayOverloadError,
    GenerationError,
    ReproError,
)
from repro.reliability.aclock import AsyncClock
from repro.serving.gateway import Gateway, GatewayRequest, GatewayResult
from repro.utils.rng import SeededRNG


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by nearest-rank on sorted data.

    Nearest-rank is deliberate: it returns an *observed* latency, never
    an interpolated one, so a reported p99 is a request that happened.
    """
    if not values:
        return 0.0
    if not 0 <= q <= 100:
        raise GenerationError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * len(ordered))) - 1))
    if q == 0:
        rank = 0
    return ordered[rank]


@dataclass
class LoadReport:
    """What one open-loop run at a fixed arrival rate measured."""

    offered_rate: float
    duration: float
    submitted: int = 0
    completed: int = 0
    shed: int = 0
    expired: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)
    queue_waits: List[float] = field(default_factory=list)

    @property
    def goodput(self) -> float:
        """Completed requests per second of clock time."""
        return self.completed / self.duration if self.duration > 0 else 0.0

    @property
    def shed_rate(self) -> float:
        """Fraction of submitted requests refused at admission."""
        return self.shed / self.submitted if self.submitted else 0.0

    @property
    def p50_latency(self) -> float:
        return percentile(self.latencies, 50)

    @property
    def p99_latency(self) -> float:
        return percentile(self.latencies, 99)

    @property
    def p99_queue_wait(self) -> float:
        return percentile(self.queue_waits, 99)

    def as_dict(self) -> dict:
        """Flat scalars for benchmark emission (no raw sample lists)."""
        return {
            "offered_rate": self.offered_rate,
            "duration": self.duration,
            "submitted": self.submitted,
            "completed": self.completed,
            "shed": self.shed,
            "expired": self.expired,
            "failed": self.failed,
            "goodput": self.goodput,
            "shed_rate": self.shed_rate,
            "p50_latency": self.p50_latency,
            "p99_latency": self.p99_latency,
            "p99_queue_wait": self.p99_queue_wait,
        }


class OpenLoopLoad:
    """One open-loop run: seeded Poisson arrivals at a fixed rate.

    ``make_request`` is called with the arrival index to produce each
    :class:`~repro.serving.gateway.GatewayRequest` — vary prompts,
    tenants, priorities, or deadlines per arrival there. Shared state
    discipline: the report is mutated only from synchronous sections of
    coroutines on the event loop (one arrival task per request), never
    from threads.
    """

    def __init__(
        self,
        gateway: Gateway,
        make_request: Callable[[int], GatewayRequest],
        rate: float,
        duration: float,
        clock: AsyncClock,
        seed: int = 0,
    ) -> None:
        if rate <= 0:
            raise GenerationError("arrival rate must be positive (req/s)")
        if duration <= 0:
            raise GenerationError("duration must be positive (seconds)")
        self.gateway = gateway
        self.make_request = make_request
        self.rate = rate
        self.duration = duration
        self.clock = clock
        self.rng = SeededRNG(seed).spawn("loadgen")
        self.report = LoadReport(offered_rate=rate, duration=duration)

    async def run(self) -> LoadReport:
        """Fire arrivals for ``duration`` seconds; await all outcomes."""
        tasks: List[asyncio.Task] = []
        start = self.clock.monotonic()
        index = 0
        while True:
            gap = self._interarrival()
            if self.clock.monotonic() + gap - start >= self.duration:
                break
            await self.clock.sleep(gap)
            tasks.append(asyncio.ensure_future(self._one(index)))
            index += 1
        if tasks:
            await asyncio.gather(*tasks)
        return self.report

    def _interarrival(self) -> float:
        """Exponential gap with mean ``1/rate`` (inverse-CDF sampling)."""
        u = self.rng.uniform(1e-12, 1.0)
        return -math.log(u) / self.rate

    async def _one(self, index: int) -> None:
        request = self.make_request(index)
        submitted_at = self.clock.monotonic()
        try:
            result = await self.gateway.submit(request)
        except (GatewayOverloadError, CircuitOpenError):
            self._count_shed()
        except DeadlineExceededError:
            self._count_expired()
        except ReproError:
            self._count_failed()
        else:
            self._count_completed(result, self.clock.monotonic() - submitted_at)

    # -- synchronous report mutation (atomic under the event loop) ---------
    def _count_shed(self) -> None:
        self.report.submitted += 1
        self.report.shed += 1

    def _count_expired(self) -> None:
        self.report.submitted += 1
        self.report.expired += 1

    def _count_failed(self) -> None:
        self.report.submitted += 1
        self.report.failed += 1

    def _count_completed(self, result: GatewayResult, latency: float) -> None:
        self.report.submitted += 1
        self.report.completed += 1
        self.report.latencies.append(latency)
        self.report.queue_waits.append(result.queue_wait)


async def run_open_loop(
    gateway: Gateway,
    make_request: Callable[[int], GatewayRequest],
    rate: float,
    duration: float,
    clock: AsyncClock,
    seed: int = 0,
) -> LoadReport:
    """Convenience wrapper: one :class:`OpenLoopLoad` run."""
    load = OpenLoopLoad(gateway, make_request, rate, duration, clock, seed=seed)
    return await load.run()


async def sweep(
    make_gateway: Callable[[], Gateway],
    make_request: Callable[[int], GatewayRequest],
    rates: Sequence[float],
    duration: float,
    clock: AsyncClock,
    seed: int = 0,
) -> List[LoadReport]:
    """Trace the saturation curve: one open-loop run per arrival rate.

    Each rate gets a **fresh** gateway from ``make_gateway`` (started
    and stopped here) so runs do not contaminate each other's queues or
    breaker states. Seeds are derived per rate index so adding a rate
    never reshuffles the arrivals of the others.
    """
    reports: List[LoadReport] = []
    for offset, rate in enumerate(rates):
        gateway = make_gateway()
        await gateway.start()
        try:
            report = await run_open_loop(
                gateway, make_request, rate, duration, clock, seed=seed + offset
            )
        finally:
            await gateway.stop()
        reports.append(report)
    return reports
