"""Queueing front-end over :class:`repro.serving.BatchedGenerator`.

Callers queue :class:`~repro.serving.engine.BatchRequest`\\ s with
:meth:`BatchScheduler.submit` and receive tickets; :meth:`BatchScheduler.run`
drains the queue through the generator's one decode loop and returns
results keyed by ticket. With ``continuous=True`` the whole queue is
handed to that retire-and-admit loop, which refills freed slots
mid-decode. The barriered mode (``continuous=False``) is only a queue
rule: it packs FIFO microbatches bounded by ``max_batch_size``
*sequences* (a request with ``n`` choices occupies ``n`` slots) and
hands each to the same loop, so no request joins a batch once it has
started. Either way, each decode step advances every active sequence
by one token. This is the serving-layer shape of the paper's hosted-API
deployments: many callers' prompts share one model, and throughput
comes from batching, not from making any single request faster. A
shared :class:`~repro.serving.prefix.PrefixCache` additionally
lets requests that repeat a prompt header (few-shot sweeps) skip
re-prefilling it.

Every submitted request is timestamped against the scheduler's
:class:`~repro.reliability.clock.Clock`, and its **queue-wait**
(submission → dispatch into the decode batch) is accumulated in
:class:`SchedulerStats` — that is the number that lets a p99 latency be
decomposed into time-waiting vs time-decoding. The async gateway's
tests drive this on a :class:`~repro.reliability.clock.VirtualClock`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import GenerationError
from repro.models.gpt import GPTModel
from repro.reliability.clock import Clock, SystemClock
from repro.serving.engine import (
    BatchedGenerator,
    BatchRequest,
    BatchResult,
    StepHook,
)
from repro.serving.prefix import PrefixCache


@dataclass
class SchedulerStats:
    """Queue-level counters describing one scheduler's lifetime of work.

    Forward-pass counters (refills, prefix hits, decode steps) live in
    one place only, the generator's
    :class:`~repro.serving.engine.GeneratorStats`
    (``scheduler.generator.stats``). ``queue_wait_total`` and
    ``queue_wait_max`` aggregate per-request submission→dispatch waits
    in clock seconds; ``cancelled`` counts requests retired mid-stream
    by an ``on_step`` hook.
    """

    submitted: int = 0
    completed: int = 0
    cancelled: int = 0
    microbatches: int = 0
    peak_batch: int = 0
    queue_wait_total: float = 0.0
    queue_wait_max: float = 0.0


class BatchScheduler:
    """FIFO microbatching front-end for batched generation.

    ``max_batch_size`` caps the number of *sequences* (sum of each
    request's ``n``) decoded together. A single request wider than the
    cap still runs — alone in its own microbatch — so oversized requests
    degrade throughput rather than deadlock the queue. ``continuous``
    switches :meth:`run` from barriered microbatches to the generator's
    retire-and-admit loop; ``prefix_cache`` threads a shared prompt
    K/V cache through every request; ``clock`` timestamps queue waits
    (defaults to real time).

    Shared state: the pending queue, ticket counter, submission stamps,
    and ``stats`` are unsynchronized instance attributes (see the
    :mod:`repro.analysis.concurrency` shared-state report). The async
    gateway respects this by giving each replica its own scheduler and
    driving it from exactly one dispatch task at a time; any other
    concurrent submitters need external serialization.
    """

    def __init__(
        self,
        model: GPTModel,
        max_batch_size: int = 8,
        prefix_cache: Optional[PrefixCache] = None,
        continuous: bool = False,
        clock: Optional[Clock] = None,
    ) -> None:
        if max_batch_size <= 0:
            raise GenerationError("max_batch_size must be positive")
        self.generator = BatchedGenerator(model, prefix_cache=prefix_cache)
        self.max_batch_size = max_batch_size
        self.continuous = continuous
        self.clock: Clock = clock if clock is not None else SystemClock()
        self.stats = SchedulerStats()
        self._queue: List[Tuple[int, BatchRequest]] = []
        self._next_ticket = 0
        self._submitted_at: Dict[int, float] = {}

    def submit(self, request: BatchRequest) -> int:
        """Queue a request; returns a ticket identifying its result."""
        ticket = self._next_ticket
        self._next_ticket += 1
        self._queue.append((ticket, request))
        self._submitted_at[ticket] = self.clock.monotonic()
        self.stats.submitted += 1
        return ticket

    def run(self, on_step: Optional[StepHook] = None) -> Dict[int, BatchResult]:
        """Drain the queue; returns ``{ticket: result}`` for all of it.

        ``on_step`` (continuous mode only) is forwarded to
        :meth:`~repro.serving.engine.BatchedGenerator.generate_continuous`
        with *queue positions translated to this run's request order* —
        the gateway uses it to cancel requests mid-stream and to kill a
        replica under fault injection.
        """
        if self.continuous:
            return self._run_continuous(on_step)
        if on_step is not None:
            raise GenerationError(
                "on_step hooks require a continuous scheduler "
                "(BatchScheduler(continuous=True))"
            )
        results: Dict[int, BatchResult] = {}
        while self._queue:
            batch = self._take_microbatch()
            self.stats.microbatches += 1
            now = self.clock.monotonic()
            for ticket, _ in batch:
                self._record_wait(ticket, now)
            occupancy = sum(request.n for _, request in batch)
            self.stats.peak_batch = max(self.stats.peak_batch, occupancy)
            batch_results = self.generator.generate([r for _, r in batch])
            for (ticket, _), result in zip(batch, batch_results):
                self._record(ticket, result, results)
        return results

    def _run_continuous(
        self, on_step: Optional[StepHook] = None
    ) -> Dict[int, BatchResult]:
        """Drain the queue through the retire-and-admit decode loop."""
        results: Dict[int, BatchResult] = {}
        batch, self._queue = self._queue, []
        if not batch:
            return results
        self.stats.microbatches += 1

        def record_admit(index: int) -> None:
            self._record_wait(batch[index][0], self.clock.monotonic())

        try:
            batch_results = self.generator.generate_continuous(
                [r for _, r in batch],
                max_active=self.max_batch_size,
                on_step=on_step,
                on_admit=record_admit,
            )
        finally:
            # A replica killed mid-run never dispatched the remainder;
            # drop their stamps so a reused scheduler doesn't leak them.
            for ticket, _ in batch:
                self._submitted_at.pop(ticket, None)
        for (ticket, _), result in zip(batch, batch_results):
            self._record(ticket, result, results)
        self.stats.peak_batch = max(
            self.stats.peak_batch, self.generator.stats.peak_active
        )
        return results

    def _record_wait(self, ticket: int, now: float) -> None:
        stamp = self._submitted_at.pop(ticket, None)
        if stamp is None:
            return
        wait = now - stamp
        self.stats.queue_wait_total += wait
        self.stats.queue_wait_max = max(self.stats.queue_wait_max, wait)

    def _record(
        self, ticket: int, result: BatchResult, results: Dict[int, BatchResult]
    ) -> None:
        results[ticket] = result
        if result.cancelled:
            self.stats.cancelled += 1
            return
        self.stats.completed += 1

    def _take_microbatch(self) -> List[Tuple[int, BatchRequest]]:
        """Pop a FIFO prefix of the queue within the occupancy budget."""
        batch: List[Tuple[int, BatchRequest]] = []
        occupancy = 0
        while self._queue:
            ticket, request = self._queue[0]
            if batch and occupancy + request.n > self.max_batch_size:
                break
            batch.append(self._queue.pop(0))
            occupancy += request.n
        return batch
