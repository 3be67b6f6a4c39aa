"""Async clocks: virtual time for ``asyncio`` code, deterministically.

The serving gateway (:mod:`repro.serving.gateway`) is asyncio code whose
behaviour is *time-shaped*: arrival processes, deadline budgets, breaker
reset timeouts, token-bucket refills. Testing that with wall-clock
sleeps would be slow and flaky, so this module extends the repo's
two-mode clock discipline (:mod:`repro.reliability.clock`) to the event
loop:

* :class:`AsyncSystemClock` — real time; ``sleep`` is ``asyncio.sleep``.
* :class:`AsyncVirtualClock` — simulated time over a shared
  :class:`~repro.reliability.clock.VirtualClock`. Coroutines ``await
  clock.sleep(dt)`` on a timer heap; a driver loop
  (:meth:`AsyncVirtualClock.run`) advances virtual time to the earliest
  pending timer whenever every task is quiescent, so a minute-long load
  sweep runs in milliseconds and every interleaving is reproducible.

Because the virtual clock wraps the *same* ``VirtualClock`` instance the
synchronous reliability pieces use (``TokenBucket``, ``CircuitBreaker``,
``Retrier`` deadline budgets), quota refills and breaker timeouts ride
the identical timeline as the asyncio arrivals — one clock, two calling
conventions.

Real compute that must not be simulated away (a decode running in a
worker thread) registers with :meth:`AsyncVirtualClock.wait_external`:
while any external future is in flight the driver refuses to advance
virtual time, so compute is an *instantaneous* event at the virtual
instant it started and its cost is modelled explicitly (the gateway
charges a configurable service time per decode step afterwards).
"""

from __future__ import annotations

import asyncio
import heapq
from typing import Awaitable, List, Optional, Protocol, Tuple, TypeVar

from repro.errors import ReproError
from repro.reliability.clock import SystemClock, VirtualClock

T = TypeVar("T")


class AsyncClock(Protocol):
    """What async serving code needs from time."""

    def monotonic(self) -> float:
        """Seconds on a monotonically increasing clock."""
        ...

    async def sleep(self, seconds: float) -> None:
        """Suspend the calling task for ``seconds`` of clock time."""
        ...

    async def wait_external(self, awaitable: Awaitable[T]) -> T:
        """Await real (non-simulated) work, e.g. an executor future."""
        ...


class AsyncSystemClock:
    """Real time for the event loop; ``sleep`` is ``asyncio.sleep``."""

    def __init__(self) -> None:
        self._clock = SystemClock()

    def monotonic(self) -> float:
        return self._clock.monotonic()

    async def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ReproError(f"cannot sleep a negative duration: {seconds}")
        await asyncio.sleep(seconds)

    async def wait_external(self, awaitable: Awaitable[T]) -> T:
        """Real work needs no special handling on a real clock."""
        return await awaitable


class AsyncVirtualClock:
    """Deterministic simulated time for ``asyncio`` tasks.

    Tasks call :meth:`sleep`, which parks them on a ``(deadline, seq)``
    timer heap; :meth:`run` drives the supplied coroutines to
    completion, repeatedly letting every runnable task make progress
    (a bounded *drain* of the event loop's ready queue) and then firing
    the earliest timer — advancing the wrapped
    :class:`~repro.reliability.clock.VirtualClock` — once nothing can
    run at the current instant. Timer ties break by registration order,
    so runs are reproducible.

    External work (:meth:`wait_external`) finishes at a real-time
    instant, which may fall in the middle of a drain. So its waiter
    resumes only when :meth:`run` releases it: after a drain, in
    registration order. How fast the work ran never changes the
    interleaving.

    Shared state discipline: the timer heap and external-future set are
    only mutated from synchronous sections of coroutines running on the
    single event loop (never from worker threads), so no lock is
    needed; the ``shared-state-mutation`` lint rule confirms no
    ``async def`` in this module mutates instance state directly.
    """

    #: ready-queue drain rounds per step; each round lets every ready
    #: task advance one suspension point, so this bounds the longest
    #: same-instant wake-up chain (future → dispatch → waiter → stats)
    DRAIN_ROUNDS = 32

    def __init__(self, clock: Optional[VirtualClock] = None) -> None:
        self._clock = clock if clock is not None else VirtualClock()
        self._timers: List[Tuple[float, int, asyncio.Future]] = []
        self._seq = 0
        #: (work, gate) pairs: the waiter resumes when ``gate`` is set
        self._external: List[Tuple[asyncio.Future, asyncio.Future]] = []
        #: timers fired by the driver (diagnostics)
        self.fired = 0

    @property
    def virtual(self) -> VirtualClock:
        """The wrapped sync clock (share it with buckets/breakers)."""
        return self._clock

    def monotonic(self) -> float:
        return self._clock.monotonic()

    async def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ReproError(f"cannot sleep a negative duration: {seconds}")
        if seconds == 0:
            await asyncio.sleep(0)
            return
        future = asyncio.get_running_loop().create_future()
        self._register_timer(self._clock.monotonic() + seconds, future)
        await future

    async def wait_external(self, awaitable: Awaitable[T]) -> T:
        """Await real work; virtual time freezes until it completes."""
        work = asyncio.ensure_future(awaitable)
        gate = asyncio.get_running_loop().create_future()
        self._register_external(work, gate)
        try:
            await gate
        except asyncio.CancelledError:
            work.cancel()
            raise
        return work.result()

    def _register_timer(self, deadline: float, future: asyncio.Future) -> None:
        heapq.heappush(self._timers, (deadline, self._seq, future))
        self._seq += 1

    def _register_external(self, work: asyncio.Future, gate: asyncio.Future) -> None:
        self._external.append((work, gate))

    def _prune_external(self) -> List[Tuple[asyncio.Future, asyncio.Future]]:
        """Drop externals whose waiter is gone; return the rest in order."""
        self._external = [(w, g) for w, g in self._external if not g.done()]
        return self._external

    def _release_external(self) -> None:
        """Resume the oldest external's waiter (its work is done)."""
        _, gate = self._external.pop(0)
        gate.set_result(None)

    def _fire_next_timer(self) -> None:
        deadline, _, future = heapq.heappop(self._timers)
        now = self._clock.monotonic()
        if deadline > now:
            self._clock.advance(deadline - now)
        self.fired += 1
        if not future.done():  # the sleeper may have been cancelled
            future.set_result(None)

    async def run(self, *coros: Awaitable) -> list:
        """Drive ``coros`` to completion under virtual time.

        Returns their results in order. Raises
        :class:`~repro.errors.ReproError` on a virtual-time deadlock:
        the supplied tasks are still pending but no timer and no
        external work could ever wake them.
        """
        tasks = [asyncio.ensure_future(c) for c in coros]
        try:
            while not all(t.done() for t in tasks):
                await self._drain()
                if all(t.done() for t in tasks):
                    break
                pending_external = self._prune_external()
                if pending_external:
                    work, _ = pending_external[0]
                    if work.done():
                        self._release_external()
                    else:
                        # Drain again once it finishes, then release.
                        await asyncio.wait([work])
                    continue
                if self._timers:
                    self._fire_next_timer()
                    continue
                raise ReproError(
                    "virtual-time deadlock: tasks pending but no timers "
                    "and no external work remain"
                )
        finally:
            for task in tasks:
                if not task.done():
                    task.cancel()
        return [task.result() for task in tasks]

    async def _drain(self) -> None:
        """Let every runnable task advance at the current instant."""
        for _ in range(self.DRAIN_ROUNDS):
            await asyncio.sleep(0)


def run_virtual(coro: Awaitable[T], clock: AsyncVirtualClock) -> T:
    """``asyncio.run`` one coroutine under an :class:`AsyncVirtualClock`."""
    async def main() -> list:
        return await clock.run(coro)

    return asyncio.run(main())[0]
