"""Multi-tenant async serving gateway: the front door to the engines.

The paper's workloads all flow through hosted APIs that multiplex many
callers onto shared model replicas. :class:`Gateway` is that front door
made mechanical: an ``asyncio`` service that fronts one or more
:class:`Replica`\\ s (each a continuous-batching
:class:`~repro.serving.scheduler.BatchScheduler` over a
:class:`~repro.serving.engine.BatchedGenerator`, decoded in a worker
thread so the event loop never blocks on a forward pass) and survives
the two things front doors die of — overload and replica failure:

* **Admission control.** A bounded arrival-order queue plus per-tenant
  :class:`~repro.reliability.ratelimit.TokenBucket` quotas. Excess work
  is *shed at the door* with a 429-style
  :class:`~repro.errors.GatewayOverloadError` instead of queued to
  death, which is what keeps accepted-request p99 latency bounded at
  2x-saturation offered load. An optional
  :class:`~repro.serving.semcache.SemanticCache` sits *in front of*
  admission: an exact repeat of a completed request is answered from
  the cache before the tenant's quota bucket is even consulted — a
  cache hit costs the tenant nothing and no replica any work.
* **SLO-aware dispatch.** The queue drains in arrival order (a
  failed-over request keeps its original place); a request carries a
  deadline *budget* and — following the
  :class:`~repro.reliability.retry.Retrier` deadline-accounting rule of
  never starting work the budget cannot pay for — is rejected with
  :class:`~repro.errors.DeadlineExceededError` at dispatch if it is
  already overdue, and cancelled mid-decode (freeing its batch slot)
  the moment its projected completion overshoots.
* **Load shedding + failover.** Every replica sits behind a
  :class:`~repro.reliability.breaker.CircuitBreaker`. A replica killed
  mid-decode by a :class:`~repro.reliability.faults.FaultInjector`
  trips its breaker; the in-flight requests are re-admitted (original
  arrival order and deadlines preserved) and decoded from scratch on a
  healthy replica — greedy outputs stay token-identical to the direct
  scheduler path and every admitted request completes **exactly once**.
  The breaker's half-open probe doubles as the health check: an open
  replica is retried with real traffic after its reset timeout.

Shared state & lock discipline
------------------------------
The gateway runs on one event loop. Every mutable attribute — the
admission heap, ticket futures, ``stats``, the work event — is mutated
**only from synchronous methods** called by tasks on that loop, so each
mutation is atomic with respect to task interleaving; ``async def``
bodies never write ``self.*`` between awaits (the
``shared-state-mutation`` lint rule enforces exactly this discipline).
The single exception is the client-cancellation set, which decode
worker threads read mid-stream: it is guarded by a ``threading.Lock``
and accessed only through :meth:`Gateway.cancel` /
:meth:`Gateway._snapshot_cancelled`. Worker threads otherwise touch
nothing of the gateway's: each owns its replica's scheduler for the
duration of one decode call and communicates by return value.
"""

from __future__ import annotations

import asyncio
import heapq
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    GatewayOverloadError,
    GenerationError,
    ReproError,
)
from repro.models.gpt import GPTModel
from repro.reliability.aclock import AsyncClock, AsyncSystemClock
from repro.reliability.breaker import CircuitBreaker
from repro.reliability.clock import Clock
from repro.reliability.faults import FaultInjector
from repro.reliability.ratelimit import TokenBucket
from repro.serving.engine import BatchRequest, BatchResult
from repro.serving.scheduler import BatchScheduler
from repro.serving.semcache import SemanticCache, completion_request_key


class Replica:
    """One engine replica: a continuous scheduler plus its guard rails.

    ``injector`` (optional) fires once per decode *step* — that is how
    a test kills a replica mid-decode. The breaker trips on the first
    failure and resets after 5 seconds; its half-open probe is the
    replica's health check. Construct the injector without a clock:
    replica latency is modelled on the event loop, never charged from
    the decode thread.

    ``seconds_per_decode_step`` is the virtual service time charged per
    vectorized decode forward. Under an
    :class:`~repro.reliability.aclock.AsyncVirtualClock` the forward
    passes themselves are instantaneous events, so the cost of decoding
    is modelled explicitly; the default 0 charges nothing, which is
    right on a real clock, where the decode thread already spent the
    wall time.

    Shared state: the scheduler (and these counters) are driven by
    exactly one gateway dispatch task, which hands the scheduler to a
    worker thread for the duration of one decode call at a time; there
    is never concurrent access, so no lock is held.
    """

    def __init__(
        self,
        name: str,
        model: GPTModel,
        max_batch: int = 8,
        injector: Optional[FaultInjector] = None,
        clock: Optional[Clock] = None,
        seconds_per_decode_step: float = 0.0,
    ) -> None:
        self.name = name
        self.max_batch = max_batch
        self.scheduler = BatchScheduler(
            model,
            max_batch_size=max_batch,
            continuous=True,
            clock=clock,
        )
        self.breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5.0, clock=clock)
        self.injector = injector
        self.seconds_per_decode_step = seconds_per_decode_step
        #: successful decode batches / decode batches that died
        self.decodes = 0
        self.failures = 0

    def decode(self, requests: Sequence[BatchRequest], on_step) -> Tuple[List[BatchResult], float]:
        """Run one batch to completion (called from a worker thread).

        Returns the per-request results in submission order plus the
        virtual service seconds the batch should charge. Exceptions
        from the fault injector or the hook propagate — the gateway
        treats them as this replica dying with the batch in flight.
        """
        stats = self.scheduler.generator.stats
        steps_before = stats.decode_steps
        tickets = [self.scheduler.submit(request) for request in requests]
        results = self.scheduler.run(on_step=on_step)
        service = (stats.decode_steps - steps_before) * self.seconds_per_decode_step
        return [results[ticket] for ticket in tickets], service


@dataclass
class GatewayRequest:
    """One tenant request: a :class:`BatchRequest` plus serving policy.

    ``deadline`` is a budget in clock seconds from admission — overdue
    work is rejected at dispatch and cancelled mid-decode, never
    silently served late.
    """

    request: BatchRequest
    tenant: str = "default"
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise GenerationError("deadline must be positive when set")


@dataclass
class GatewayResult:
    """What an admitted, completed request gets back."""

    sequences: List[List[int]]
    replica: str
    attempts: int
    queue_wait: float
    latency: float


@dataclass
class GatewayStats:
    """Counters for one gateway's lifetime of traffic.

    ``queue_wait_max`` covers admission→dispatch, so
    ``p99 latency = queue wait + decode (service) time`` decomposes
    overload (wait grows) from slow decoding (service grows).
    """

    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    cancelled: int = 0
    failed: int = 0
    shed_quota: int = 0
    shed_queue_full: int = 0
    shed_unavailable: int = 0
    expired_in_queue: int = 0
    expired_mid_decode: int = 0
    replica_failures: int = 0
    failovers: int = 0
    dispatched_batches: int = 0
    queue_wait_max: float = 0.0
    service_seconds: float = 0.0

    @property
    def shed(self) -> int:
        """Requests refused at the door (the 429s)."""
        return self.shed_quota + self.shed_queue_full + self.shed_unavailable


@dataclass
class _Ticket:
    """Gateway-internal state for one admitted request."""

    id: int
    request: GatewayRequest
    future: asyncio.Future
    admitted_at: float
    enqueued_at: float
    deadline_at: Optional[float]
    attempts: int = 0
    queue_wait: float = 0.0
    cancel_reason: Optional[str] = None


class Gateway:
    """Asyncio front door over a set of engine replicas.

    See the module docstring for the admission/shedding/failover story
    and the shared-state lock discipline. Lifecycle::

        gateway = Gateway([replica], clock=aclock, quotas={"t0": bucket})
        await gateway.start()
        result = await gateway.submit(GatewayRequest(BatchRequest(ids)))
        await gateway.stop()
    """

    def __init__(
        self,
        replicas: Sequence[Replica],
        clock: Optional[AsyncClock] = None,
        max_queue: int = 64,
        quotas: Optional[Dict[str, TokenBucket]] = None,
        max_attempts: int = 3,
        probe_interval: float = 1.0,
        completion_cache: Optional[SemanticCache] = None,
    ) -> None:
        if not replicas:
            raise GenerationError("a gateway needs at least one replica")
        if max_queue <= 0:
            raise GenerationError("max_queue must be positive")
        if max_attempts <= 0:
            raise GenerationError("max_attempts must be positive")
        self.replicas = list(replicas)
        self.clock: AsyncClock = clock if clock is not None else AsyncSystemClock()
        self.max_queue = max_queue
        self.quotas: Dict[str, TokenBucket] = dict(quotas or {})
        self.max_attempts = max_attempts
        self.probe_interval = probe_interval
        self.completion_cache = completion_cache
        self.stats = GatewayStats()
        self._heap: List[Tuple[int, _Ticket]] = []
        self._next_id = 0
        self._work = asyncio.Event()
        self._cancelled: Set[int] = set()
        self._cancel_lock = threading.Lock()
        self._dispatchers: List[asyncio.Task] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._running = False

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Spawn one dispatch task per replica (idempotent)."""
        if self._running:
            return
        self._mark_started()
        for replica in self.replicas:
            self._track_dispatcher(
                asyncio.ensure_future(self._dispatch_loop(replica))
            )

    async def stop(self) -> None:
        """Cancel the dispatchers and release the decode threads."""
        dispatchers = self._mark_stopped()
        for task in dispatchers:
            task.cancel()
        for task in dispatchers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._release_executor()

    def _mark_started(self) -> None:
        self._running = True
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=len(self.replicas),
                thread_name_prefix="gateway-decode",
            )

    def _track_dispatcher(self, task: asyncio.Task) -> None:
        self._dispatchers.append(task)

    def _mark_stopped(self) -> List[asyncio.Task]:
        self._running = False
        dispatchers, self._dispatchers = self._dispatchers, []
        return dispatchers

    def _release_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # -- admission (synchronous: atomic under the event loop) --------------
    def admit(self, request: GatewayRequest) -> _Ticket:
        """Admit or shed one request; returns its ticket.

        Raises :class:`~repro.errors.GatewayOverloadError` (tenant over
        quota / queue full) or :class:`~repro.errors.CircuitOpenError`
        (every replica's breaker is open) — the three shed verdicts a
        front door can return without doing any work.

        With a :class:`~repro.serving.semcache.SemanticCache`
        configured, an exact repeat of a completed request resolves
        here — *before* the tenant's quota bucket is debited or a queue
        slot taken — so cached traffic can never shed a tenant.
        """
        self.stats.submitted += 1
        cached = self._cache_lookup(request)
        if cached is not None:
            return cached
        bucket = self.quotas.get(request.tenant)
        if bucket is not None and not bucket.try_acquire():
            self.stats.shed_quota += 1
            raise GatewayOverloadError(
                f"tenant {request.tenant!r} is over its admission quota",
                reason="tenant-quota",
                retry_after=1.0 / bucket.rate,
            )
        if len(self._heap) >= self.max_queue:
            self.stats.shed_queue_full += 1
            raise GatewayOverloadError(
                f"admission queue is full ({self.max_queue} requests)",
                reason="queue-full",
            )
        if not any(replica.breaker.allow() for replica in self.replicas):
            self.stats.shed_unavailable += 1
            raise CircuitOpenError(
                "every replica's circuit breaker is open; the gateway "
                "has nowhere to send work"
            )
        now = self.clock.monotonic()
        ticket = _Ticket(
            id=self._next_id,
            request=request,
            future=asyncio.get_running_loop().create_future(),
            admitted_at=now,
            enqueued_at=now,
            deadline_at=(
                now + request.deadline if request.deadline is not None else None
            ),
        )
        self._next_id += 1
        self.stats.admitted += 1
        self._push(ticket)
        return ticket

    def _cache_lookup(self, request: GatewayRequest) -> Optional[_Ticket]:
        """Serve an exact repeat from the completion cache, if any.

        A hit never touches quota, queue, or breakers: the ticket comes
        back already resolved (replica ``"cache"``, zero wait/latency)
        and is not counted as admitted — the settlement identity over
        admitted requests stays intact.
        """
        if self.completion_cache is None:
            return None
        key = completion_request_key(request.request)
        if key is None:
            return None
        hit = self.completion_cache.lookup(key)
        if hit is None:
            return None
        now = self.clock.monotonic()
        ticket = _Ticket(
            id=self._next_id,
            request=request,
            future=asyncio.get_running_loop().create_future(),
            admitted_at=now,
            enqueued_at=now,
            deadline_at=None,
        )
        self._next_id += 1
        ticket.future.set_result(
            GatewayResult(
                sequences=[list(ids) for ids in hit.value],
                replica="cache",
                attempts=0,
                queue_wait=0.0,
                latency=0.0,
            )
        )
        return ticket

    async def submit(self, request: GatewayRequest) -> GatewayResult:
        """Admit ``request`` and await its completion.

        If the awaiting task is cancelled (the client disconnected),
        the request is cancelled mid-stream and its slot freed.
        """
        ticket = self.admit(request)
        try:
            return await ticket.future
        except asyncio.CancelledError:
            self.cancel(ticket)
            raise

    def cancel(self, ticket: _Ticket) -> None:
        """Cancel an admitted request (client disconnect).

        Thread-visible: decode worker threads read the cancellation set
        between decode steps, so a mid-stream request retires at its
        next step without disturbing the rest of the batch.
        """
        with self._cancel_lock:
            self._cancelled.add(ticket.id)
        if not ticket.future.done():
            ticket.future.cancel()

    def _snapshot_cancelled(self) -> Set[int]:
        """Read the cancellation set (safe from decode threads)."""
        with self._cancel_lock:
            return set(self._cancelled)

    def _push(self, ticket: _Ticket) -> None:
        heapq.heappush(self._heap, (ticket.id, ticket))
        self._work.set()

    # -- dispatch ----------------------------------------------------------
    async def _dispatch_loop(self, replica: Replica) -> None:
        """Serve one replica until cancelled: take a batch, decode it."""
        while True:
            if not replica.breaker.allow():
                # Open circuit: sleep out (part of) the reset timeout,
                # then re-check; the half-open probe is real traffic.
                await self.clock.sleep(self.probe_interval)
                continue
            batch = self._take_batch(replica)
            if not batch:
                await self._work.wait()
                self._settle_work_event()
                continue
            await self._run_batch(replica, batch)

    def _settle_work_event(self) -> None:
        """Re-arm the work event once the wake-up has been consumed."""
        self._work.clear()
        if self._heap:
            self._work.set()

    def _take_batch(self, replica: Replica) -> List[_Ticket]:
        """Pop the dispatchable arrival-order prefix of the queue.

        Cancelled tickets are dropped, overdue tickets are rejected
        with :class:`~repro.errors.DeadlineExceededError` (the budget
        cannot pay for work that has not started — the
        :class:`~repro.reliability.retry.Retrier` rule), and the rest
        fill the replica's batch. A request wider than the batch cap
        still runs, alone, so oversized requests degrade throughput
        rather than deadlock the queue.
        """
        now = self.clock.monotonic()
        cancelled = self._snapshot_cancelled()
        batch: List[_Ticket] = []
        occupancy = 0
        while self._heap:
            ticket = self._heap[0][1]
            width = ticket.request.request.n
            if batch and occupancy + width > replica.max_batch:
                break
            heapq.heappop(self._heap)
            if ticket.future.done() or ticket.id in cancelled:
                self._finish_cancelled(ticket)
                continue
            if ticket.deadline_at is not None and now >= ticket.deadline_at:
                self.stats.expired_in_queue += 1
                self._resolve_error(
                    ticket,
                    DeadlineExceededError(
                        f"request {ticket.id} spent its whole "
                        f"{ticket.request.deadline:.3f}s budget in the queue"
                    ),
                )
                continue
            wait = now - ticket.enqueued_at
            ticket.queue_wait += wait
            self.stats.queue_wait_max = max(self.stats.queue_wait_max, wait)
            batch.append(ticket)
            occupancy += width
        if batch:
            self.stats.dispatched_batches += 1
        return batch

    async def _run_batch(self, replica: Replica, batch: List[_Ticket]) -> None:
        """Decode one batch on ``replica``; charge service time; settle."""
        requests = [ticket.request.request for ticket in batch]
        hook = self._make_step_hook(replica, batch)
        try:
            results, service = await self._decode(replica, requests, hook)
        except ReproError as exc:
            self._on_replica_failure(replica, batch, exc)
            return
        if service > 0:
            await self.clock.sleep(service)
        self._finish_batch(replica, batch, results, service)

    async def _decode(
        self,
        replica: Replica,
        requests: List[BatchRequest],
        hook,
    ) -> Tuple[List[BatchResult], float]:
        loop = asyncio.get_running_loop()
        return await self.clock.wait_external(
            loop.run_in_executor(self._executor, replica.decode, requests, hook)
        )

    def _make_step_hook(self, replica: Replica, batch: List[_Ticket]):
        """Build the per-decode-step hook run inside the worker thread.

        The hook fires the replica's fault injector (a kill raises out
        of the decode), then cancels any request whose client
        disconnected or whose deadline the *projected* virtual
        completion time has overshot. It reads gateway state only via
        the lock-guarded cancellation snapshot and thread-safe clock
        reads; ticket writes here are read by the event loop strictly
        after the decode future resolves.
        """
        per_step = replica.seconds_per_decode_step
        steps = 0

        def on_step(active: List[int], queued: List[int]) -> List[int]:
            nonlocal steps
            if replica.injector is not None:
                replica.injector.before_request(f"{replica.name}:decode-step")
            steps += 1
            projected = self.clock.monotonic() + steps * per_step
            cancelled = self._snapshot_cancelled()
            victims: List[int] = []
            for index in list(active) + list(queued):
                ticket = batch[index]
                if ticket.id in cancelled:
                    ticket.cancel_reason = "client"
                    victims.append(index)
                elif (
                    ticket.deadline_at is not None
                    and projected > ticket.deadline_at
                ):
                    ticket.cancel_reason = "deadline"
                    victims.append(index)
            return victims

        return on_step

    # -- settlement (synchronous: atomic under the event loop) -------------
    def _on_replica_failure(
        self, replica: Replica, batch: List[_Ticket], exc: ReproError
    ) -> None:
        """A replica died with ``batch`` in flight: re-admit everything.

        No ticket has been resolved (the whole decode raised), so
        re-queueing preserves exactly-once completion; arrival order
        and deadlines survive because tickets keep their ids and
        ``deadline_at``. A ticket out of attempts fails permanently
        with the replica's error.
        """
        replica.failures += 1
        replica.breaker.record_failure()
        self.stats.replica_failures += 1
        now = self.clock.monotonic()
        for ticket in batch:
            if ticket.future.cancelled():
                # The client disconnected while the replica was dying;
                # account the cancellation, don't re-admit.
                self._finish_cancelled(ticket)
                continue
            if ticket.future.done():
                continue
            ticket.attempts += 1
            if ticket.attempts >= self.max_attempts:
                self.stats.failed += 1
                self._resolve_error(ticket, exc)
                continue
            self.stats.failovers += 1
            ticket.enqueued_at = now
            ticket.cancel_reason = None
            self._push(ticket)

    def _on_decode_cancelled(self, ticket: _Ticket) -> None:
        if ticket.cancel_reason == "deadline":
            self.stats.expired_mid_decode += 1
            self._resolve_error(
                ticket,
                DeadlineExceededError(
                    f"request {ticket.id} overshot its "
                    f"{ticket.request.deadline:.3f}s budget mid-decode"
                ),
            )
        else:
            self._finish_cancelled(ticket)

    def _finish_cancelled(self, ticket: _Ticket) -> None:
        self.stats.cancelled += 1
        if not ticket.future.done():
            ticket.future.cancel()

    def _finish_batch(
        self,
        replica: Replica,
        batch: List[_Ticket],
        results: List[BatchResult],
        service: float,
    ) -> None:
        replica.breaker.record_success()
        replica.decodes += 1
        self.stats.service_seconds += service
        now = self.clock.monotonic()
        for ticket, result in zip(batch, results):
            if result.cancelled:
                self._on_decode_cancelled(ticket)
                continue
            if ticket.future.cancelled():
                # The client disconnected between the last decode step
                # and settlement: the output exists but nobody is
                # waiting. Counted as cancelled, never as completed.
                self._finish_cancelled(ticket)
                continue
            self.stats.completed += 1
            self._cache_store(ticket, result)
            self._resolve(
                ticket,
                GatewayResult(
                    sequences=result.sequences,
                    replica=replica.name,
                    attempts=ticket.attempts + 1,
                    queue_wait=ticket.queue_wait,
                    latency=now - ticket.admitted_at,
                ),
            )

    def _cache_store(self, ticket: _Ticket, result: BatchResult) -> None:
        """Remember a completed request's sequences for exact repeats."""
        if self.completion_cache is None:
            return
        key = completion_request_key(ticket.request.request)
        if key is None:
            return
        # Sequences hold generated ids only; the prompt is the skipped
        # prefill work, the sequences the skipped decode work.
        prompt_tokens = len(ticket.request.request.prompt_ids)
        completion_tokens = sum(len(ids) for ids in result.sequences)
        self.completion_cache.insert(
            key,
            [list(ids) for ids in result.sequences],
            group="completions",
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
        )

    def _resolve(self, ticket: _Ticket, result: GatewayResult) -> None:
        if ticket.future.done():
            raise GenerationError(
                f"request {ticket.id} resolved twice — exactly-once "
                "completion is broken"
            )
        ticket.future.set_result(result)

    def _resolve_error(self, ticket: _Ticket, exc: ReproError) -> None:
        if not ticket.future.done():
            ticket.future.set_exception(exc)

    # -- introspection -----------------------------------------------------
    def serving_stats(self) -> dict:
        """Gateway counters plus per-replica scheduler rollups."""
        return {
            "gateway": self.stats,
            "replicas": {
                replica.name: replica.scheduler.stats
                for replica in self.replicas
            },
        }
