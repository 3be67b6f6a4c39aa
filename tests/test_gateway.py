"""Tests for the async serving gateway and its virtual-time harness.

Everything here runs on an :class:`AsyncVirtualClock` — no wall-clock
sleeps, seeded arrivals — so a multi-second load sweep executes in
milliseconds and every run is bit-for-bit reproducible. The invariants
under test are the gateway's contract: greedy outputs token-identical
to the direct scheduler path (including under injected replica
failure), exactly-once completion for every admitted request, bounded
accepted-latency under overload via shedding, and deadline/cancellation
bookkeeping that always balances the admission ledger.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    GatewayOverloadError,
    GenerationError,
    RateLimitError,
    ReproError,
)
from repro.generation import GenerationConfig
from repro.models import GPTModel, ModelConfig
from repro.reliability import FaultInjector, FaultProfile, TokenBucket
from repro.reliability.aclock import (
    AsyncSystemClock,
    AsyncVirtualClock,
    run_virtual,
)
from repro.serving import (
    BatchRequest,
    BatchScheduler,
    Gateway,
    GatewayRequest,
    Replica,
    ServiceModel,
)
from repro.serving.loadgen import percentile, run_open_loop, sweep

CFG = GenerationConfig(max_new_tokens=8)


@pytest.fixture(scope="module")
def model():
    return GPTModel(ModelConfig.tiny(vocab_size=48), seed=7)


@pytest.fixture(scope="module")
def prompts():
    rng = np.random.default_rng(0)
    return [list(map(int, rng.integers(1, 48, size=n))) for n in (3, 9, 1, 12, 6, 4)]


@pytest.fixture(scope="module")
def reference(model, prompts):
    """Greedy outputs from the direct continuous-scheduler path."""
    scheduler = BatchScheduler(model, max_batch_size=4, continuous=True)
    tickets = [scheduler.submit(BatchRequest(p, config=CFG)) for p in prompts]
    results = scheduler.run()
    return [results[t].sequences for t in tickets]


SERVICE = ServiceModel(seconds_per_decode_step=0.01)


def make_replica(name, model, clock, injector=None, max_batch=4):
    return Replica(
        name,
        model,
        max_batch=max_batch,
        clock=clock.virtual,
        service=SERVICE,
        injector=injector,
    )


class TestAsyncVirtualClock:
    def test_timers_fire_in_deadline_order(self):
        clock = AsyncVirtualClock()
        fired = []

        async def sleeper(delay, tag):
            await clock.sleep(delay)
            fired.append((tag, clock.monotonic()))

        async def main():
            await asyncio.gather(
                sleeper(0.3, "c"), sleeper(0.1, "a"), sleeper(0.2, "b")
            )

        run_virtual(main(), clock)
        assert [tag for tag, _ in fired] == ["a", "b", "c"]
        assert [t for _, t in fired] == pytest.approx([0.1, 0.2, 0.3])

    def test_external_work_freezes_virtual_time(self):
        clock = AsyncVirtualClock()

        async def main():
            loop = asyncio.get_running_loop()
            before = clock.monotonic()
            value = await clock.wait_external(
                loop.run_in_executor(None, lambda: 41 + 1)
            )
            return value, clock.monotonic() - before

        value, elapsed = run_virtual(main(), clock)
        assert value == 42
        assert elapsed == 0.0

    def test_external_finish_time_does_not_change_interleaving(self):
        """Work that lands mid-drain resumes its waiter after the drain.

        Regression: the waiter used to resume whenever the worker thread
        finished, so the same program interleaved differently (and could
        report a spurious deadlock) depending on real decode speed.
        """

        def order(work_seconds):
            clock = AsyncVirtualClock()
            events = []

            async def external():
                loop = asyncio.get_running_loop()
                await clock.wait_external(
                    loop.run_in_executor(None, time.sleep, work_seconds)
                )
                events.append("external")

            async def chain():
                for _ in range(8):
                    sum(range(300_000))  # a slow step, e.g. a GC pause
                    await asyncio.sleep(0)
                events.append("chain")

            async def main():
                await asyncio.gather(external(), chain())

            run_virtual(main(), clock)
            return events

        assert order(0.0) == order(0.2) == ["chain", "external"]

    def test_deadlock_detected(self):
        clock = AsyncVirtualClock()

        async def stuck():
            await asyncio.get_running_loop().create_future()

        with pytest.raises(ReproError, match="deadlock"):
            run_virtual(stuck(), clock)

    def test_negative_sleep_rejected(self):
        clock = AsyncVirtualClock()
        with pytest.raises(ReproError):
            run_virtual(clock.sleep(-1.0), clock)

    def test_system_clock_sleep_and_external(self):
        clock = AsyncSystemClock()

        async def main():
            await clock.sleep(0)
            return await clock.wait_external(asyncio.sleep(0, result=7))

        assert asyncio.run(main()) == 7


class TestGatewayBasics:
    def test_token_identical_to_direct_scheduler(self, model, prompts, reference):
        clock = AsyncVirtualClock()

        async def main():
            gateway = Gateway([make_replica("r0", model, clock)], clock=clock)
            await gateway.start()
            results = await asyncio.gather(
                *[
                    gateway.submit(GatewayRequest(BatchRequest(p, config=CFG)))
                    for p in prompts
                ]
            )
            await gateway.stop()
            return gateway, results

        gateway, results = run_virtual(main(), clock)
        assert [r.sequences for r in results] == reference
        assert gateway.stats.completed == len(prompts)
        assert gateway.stats.shed == 0

    def test_latency_decomposes_into_wait_plus_service(self, model, prompts):
        clock = AsyncVirtualClock()

        async def main():
            gateway = Gateway([make_replica("r0", model, clock)], clock=clock)
            await gateway.start()
            results = await asyncio.gather(
                *[
                    gateway.submit(GatewayRequest(BatchRequest(p, config=CFG)))
                    for p in prompts
                ]
            )
            await gateway.stop()
            return gateway, results

        gateway, results = run_virtual(main(), clock)
        # 6 prompts over a 4-wide replica: the second batch waits for
        # the first batch's virtual service time.
        waited = [r for r in results if r.queue_wait > 0]
        assert waited, "expected the overflow batch to record queue wait"
        for result in results:
            assert result.latency >= result.queue_wait
        assert gateway.stats.queue_wait_max == pytest.approx(
            max(r.queue_wait for r in results)
        )
        assert gateway.stats.service_seconds > 0

    def test_serving_stats_rollup(self, model, prompts):
        clock = AsyncVirtualClock()

        async def main():
            gateway = Gateway([make_replica("r0", model, clock)], clock=clock)
            await gateway.start()
            await asyncio.gather(
                *[
                    gateway.submit(GatewayRequest(BatchRequest(p, config=CFG)))
                    for p in prompts
                ]
            )
            await gateway.stop()
            return gateway

        gateway = run_virtual(main(), clock)
        rollup = gateway.serving_stats()
        assert rollup["gateway"].completed == len(prompts)
        assert rollup["replicas"]["r0"].completed == len(prompts)
        assert rollup["replicas"]["r0"].queue_wait_total >= 0.0

    def test_constructor_validation(self, model):
        clock = AsyncVirtualClock()
        with pytest.raises(GenerationError):
            Gateway([], clock=clock)
        with pytest.raises(GenerationError):
            Gateway([make_replica("r", model, clock)], clock=clock, max_queue=0)
        with pytest.raises(GenerationError):
            GatewayRequest(BatchRequest([1, 2], config=CFG), deadline=0.0)


class TestAdmissionControl:
    def test_queue_full_sheds_with_429(self, model, prompts):
        clock = AsyncVirtualClock()

        async def main():
            gateway = Gateway(
                [make_replica("r0", model, clock)], clock=clock, max_queue=2
            )
            # Not started: nothing drains, so the third admit overflows.
            gateway.admit(GatewayRequest(BatchRequest(prompts[0], config=CFG)))
            gateway.admit(GatewayRequest(BatchRequest(prompts[1], config=CFG)))
            with pytest.raises(GatewayOverloadError) as excinfo:
                gateway.admit(GatewayRequest(BatchRequest(prompts[2], config=CFG)))
            return gateway, excinfo.value

        gateway, error = run_virtual(main(), clock)
        assert error.reason == "queue-full"
        assert isinstance(error, RateLimitError)  # retry loops back off
        assert gateway.stats.shed_queue_full == 1
        assert gateway.stats.admitted == 2

    def test_tenant_quota_sheds_only_that_tenant(self, model, prompts):
        clock = AsyncVirtualClock()

        async def main():
            quota = TokenBucket(0.5, capacity=1, clock=clock.virtual)
            gateway = Gateway(
                [make_replica("r0", model, clock)],
                clock=clock,
                quotas={"metered": quota},
            )
            await gateway.start()
            first = await gateway.submit(
                GatewayRequest(BatchRequest(prompts[0], config=CFG), tenant="metered")
            )
            with pytest.raises(GatewayOverloadError) as excinfo:
                await gateway.submit(
                    GatewayRequest(
                        BatchRequest(prompts[1], config=CFG), tenant="metered"
                    )
                )
            # An unmetered tenant is untouched by the metered bucket.
            other = await gateway.submit(
                GatewayRequest(BatchRequest(prompts[2], config=CFG), tenant="free")
            )
            # After the bucket refills, the metered tenant is admitted.
            await clock.sleep(2.0)
            again = await gateway.submit(
                GatewayRequest(BatchRequest(prompts[3], config=CFG), tenant="metered")
            )
            await gateway.stop()
            return gateway, excinfo.value, [first, other, again]

        gateway, error, results = run_virtual(main(), clock)
        assert error.reason == "tenant-quota"
        assert error.retry_after == pytest.approx(2.0)
        assert gateway.stats.shed_quota == 1
        assert all(r.sequences for r in results)

    def test_all_breakers_open_sheds_unavailable(self, model, prompts):
        clock = AsyncVirtualClock()

        async def main():
            replica = make_replica("r0", model, clock)
            replica.breaker.record_failure()  # threshold 1: now open
            gateway = Gateway([replica], clock=clock)
            with pytest.raises(CircuitOpenError):
                gateway.admit(GatewayRequest(BatchRequest(prompts[0], config=CFG)))
            return gateway

        gateway = run_virtual(main(), clock)
        assert gateway.stats.shed_unavailable == 1


class TestDeadlines:
    def test_expired_in_queue_rejected_at_dispatch(self, model, prompts):
        clock = AsyncVirtualClock()

        async def main():
            gateway = Gateway([make_replica("r0", model, clock)], clock=clock)
            ticket = gateway.admit(
                GatewayRequest(BatchRequest(prompts[0], config=CFG), deadline=0.05)
            )
            await clock.sleep(0.2)  # the budget expires while queued
            await gateway.start()
            with pytest.raises(DeadlineExceededError):
                await ticket.future
            await gateway.stop()
            return gateway

        gateway = run_virtual(main(), clock)
        assert gateway.stats.expired_in_queue == 1
        assert gateway.stats.completed == 0

    def test_expired_mid_decode_frees_slot_without_disturbing_batch(
        self, model, prompts, reference
    ):
        clock = AsyncVirtualClock()
        # 8 decode steps at 0.01 s/step project 0.08s; a 0.035s budget
        # dies mid-decode while unbudgeted requests run to completion.
        doomed = GatewayRequest(BatchRequest(prompts[0], config=CFG), deadline=0.035)

        async def main():
            gateway = Gateway([make_replica("r0", model, clock)], clock=clock)
            await gateway.start()
            outcomes = await asyncio.gather(
                gateway.submit(doomed),
                *[
                    gateway.submit(GatewayRequest(BatchRequest(p, config=CFG)))
                    for p in prompts[1:4]
                ],
                return_exceptions=True,
            )
            await gateway.stop()
            return gateway, outcomes

        gateway, outcomes = run_virtual(main(), clock)
        assert isinstance(outcomes[0], DeadlineExceededError)
        assert gateway.stats.expired_mid_decode == 1
        assert [r.sequences for r in outcomes[1:]] == reference[1:4]


class TestCancellation:
    def test_client_disconnect_mid_stream(self, model, prompts, reference):
        clock = AsyncVirtualClock()

        async def main():
            gateway = Gateway([make_replica("r0", model, clock)], clock=clock)
            await gateway.start()
            victim = asyncio.ensure_future(
                gateway.submit(GatewayRequest(BatchRequest(prompts[0], config=CFG)))
            )
            others = [
                asyncio.ensure_future(
                    gateway.submit(GatewayRequest(BatchRequest(p, config=CFG)))
                )
                for p in prompts[1:4]
            ]
            await asyncio.sleep(0)  # let the batch dispatch
            victim.cancel()
            results = await asyncio.gather(*others)
            with pytest.raises(asyncio.CancelledError):
                await victim
            await gateway.stop()
            return gateway, results

        gateway, results = run_virtual(main(), clock)
        assert [r.sequences for r in results] == reference[1:4]
        assert gateway.stats.cancelled == 1
        assert gateway.stats.completed == 3

    def test_ledger_balances(self, model, prompts):
        """completed + cancelled + failed + expired == admitted."""
        clock = AsyncVirtualClock()

        async def main():
            gateway = Gateway([make_replica("r0", model, clock)], clock=clock)
            await gateway.start()
            victim = asyncio.ensure_future(
                gateway.submit(GatewayRequest(BatchRequest(prompts[0], config=CFG)))
            )
            rest = [
                asyncio.ensure_future(
                    gateway.submit(
                        GatewayRequest(
                            BatchRequest(p, config=CFG),
                            deadline=0.035 if i == 0 else None,
                        )
                    )
                )
                for i, p in enumerate(prompts[1:])
            ]
            await asyncio.sleep(0)
            victim.cancel()
            await asyncio.gather(*rest, victim, return_exceptions=True)
            await gateway.stop()
            return gateway

        gateway = run_virtual(main(), clock)
        s = gateway.stats
        settled = (
            s.completed
            + s.cancelled
            + s.failed
            + s.expired_in_queue
            + s.expired_mid_decode
        )
        assert settled == s.admitted


class TestFailover:
    def test_replica_killed_mid_decode_fails_over_exactly_once(
        self, model, prompts, reference
    ):
        clock = AsyncVirtualClock()

        async def main():
            injector = FaultInjector(FaultProfile(rate_limit_every=3), clock=None)
            bad = make_replica("bad", model, clock, injector=injector)
            good = make_replica("good", model, clock)
            gateway = Gateway([bad, good], clock=clock)
            await gateway.start()
            results = await asyncio.gather(
                *[
                    gateway.submit(GatewayRequest(BatchRequest(p, config=CFG)))
                    for p in prompts
                ]
            )
            await gateway.stop()
            return gateway, results

        gateway, results = run_virtual(main(), clock)
        # Token-identical to the direct scheduler path despite the kill.
        assert [r.sequences for r in results] == reference
        # Exactly once: every admitted request completed, none doubly.
        assert gateway.stats.completed == len(prompts)
        assert gateway.stats.replica_failures >= 1
        assert gateway.stats.failovers >= 1
        bad, good = gateway.replicas
        assert bad.failures >= 1 and bad.decodes == 0
        assert good.decodes >= 1
        # The failed-over requests record the retry in their attempts.
        assert max(r.attempts for r in results) >= 2
        assert all(r.replica == "good" for r in results if r.attempts > 1)

    def test_dead_replica_trips_breaker_and_heals(self, model, prompts, reference):
        clock = AsyncVirtualClock()

        class DieOnce:
            """Kills the replica on its first decode step, then heals."""

            def __init__(self):
                self.kills = 0

            def before_request(self, label):
                if self.kills == 0:
                    self.kills += 1
                    raise RateLimitError(f"injected one-shot kill on {label}")

        async def main():
            replica = make_replica("r0", model, clock, injector=DieOnce())
            gateway = Gateway([replica], clock=clock, probe_interval=1.0)
            await gateway.start()
            result = await gateway.submit(
                GatewayRequest(BatchRequest(prompts[0], config=CFG))
            )
            await gateway.stop()
            return gateway, result

        gateway, result = run_virtual(main(), clock)
        assert result.sequences == reference[0]
        assert result.attempts == 2
        assert gateway.stats.replica_failures == 1
        assert gateway.replicas[0].breaker.state == "closed"

    def test_permanently_dead_single_replica_fails_after_max_attempts(
        self, model, prompts
    ):
        clock = AsyncVirtualClock()

        async def main():
            injector = FaultInjector(FaultProfile(rate_limit_every=1), clock=None)
            replica = make_replica("r0", model, clock, injector=injector)
            gateway = Gateway([replica], clock=clock, max_attempts=2)
            await gateway.start()
            with pytest.raises(RateLimitError):
                await gateway.submit(
                    GatewayRequest(BatchRequest(prompts[0], config=CFG))
                )
            await gateway.stop()
            return gateway

        gateway = run_virtual(main(), clock)
        assert gateway.stats.failed == 1
        assert gateway.stats.replica_failures == 2
        assert gateway.stats.completed == 0


class TestLoadgen:
    def test_percentile_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 99) == 99.0
        assert percentile(values, 100) == 100.0
        assert percentile(values, 0) == 1.0
        assert percentile([], 99) == 0.0
        with pytest.raises(GenerationError):
            percentile([1.0], 200)

    def test_open_loop_run_is_deterministic(self, model, prompts):
        def once():
            clock = AsyncVirtualClock()

            async def main():
                gateway = Gateway(
                    [make_replica("r0", model, clock, max_batch=8)],
                    clock=clock,
                    max_queue=16,
                )
                await gateway.start()
                report = await run_open_loop(
                    gateway,
                    lambda i: GatewayRequest(
                        BatchRequest(prompts[i % len(prompts)], config=CFG)
                    ),
                    rate=50.0,
                    duration=2.0,
                    clock=clock,
                    seed=11,
                )
                await gateway.stop()
                return report

            return run_virtual(main(), clock).as_dict()

        assert once() == once()

    def test_saturation_curve_sheds_and_keeps_p99_bounded(self, model, prompts):
        clock = AsyncVirtualClock()

        def make_gateway():
            return Gateway(
                [make_replica("r0", model, clock, max_batch=8)],
                clock=clock,
                max_queue=16,
            )

        async def main():
            return await sweep(
                make_gateway,
                lambda i: GatewayRequest(
                    BatchRequest(prompts[i % len(prompts)], config=CFG)
                ),
                rates=[50.0, 100.0, 200.0],
                duration=3.0,
                clock=clock,
                seed=42,
            )

        light, saturated, overloaded = run_virtual(main(), clock)
        # Under capacity: everything completes, nothing shed.
        assert light.shed == 0
        assert light.completed == light.submitted
        # At 2x saturation the gateway sheds instead of queueing...
        assert overloaded.shed_rate > 0.2
        # ...which keeps accepted p99 bounded (within 2x of the
        # at-capacity p99, not growing with offered load)...
        assert overloaded.p99_latency < 2.0 * saturated.p99_latency
        # ...while goodput holds within 10% of the single-replica peak.
        peak = max(light.goodput, saturated.goodput)
        assert overloaded.goodput > 0.9 * peak


class TestGatewayCompletionCache:
    def test_cache_hit_skips_quota_and_decode(self, model, prompts):
        from repro.serving import SemanticCache

        clock = AsyncVirtualClock()

        async def main():
            cache = SemanticCache(max_bytes=64 * 1024)
            quota = TokenBucket(0.001, capacity=1, clock=clock.virtual)
            gateway = Gateway(
                [make_replica("r0", model, clock)],
                clock=clock,
                quotas={"metered": quota},
                completion_cache=cache,
            )
            await gateway.start()
            first = await gateway.submit(
                GatewayRequest(BatchRequest(prompts[0], config=CFG), tenant="metered")
            )
            # The bucket is empty (refill is ~never): an exact repeat
            # must be served from the cache without touching it...
            again = await gateway.submit(
                GatewayRequest(BatchRequest(prompts[0], config=CFG), tenant="metered")
            )
            # ...while a *different* request still sheds on quota.
            with pytest.raises(GatewayOverloadError):
                await gateway.submit(
                    GatewayRequest(
                        BatchRequest(prompts[1], config=CFG), tenant="metered"
                    )
                )
            await gateway.stop()
            return gateway, first, again

        gateway, first, again = run_virtual(main(), clock)
        assert again.sequences == first.sequences
        assert again.replica == "cache"
        assert again.latency == 0.0
        assert gateway.stats.cache_hits == 1
        assert gateway.stats.shed_quota == 1
        # The hit is not admitted work: the settlement ledger balances
        # over decoded requests alone.
        assert gateway.stats.admitted == 1
        assert gateway.stats.completed == 1
        assert gateway.stats.submitted == 3

    def test_cached_sequences_token_identical(self, model, prompts, reference):
        from repro.serving import SemanticCache

        clock = AsyncVirtualClock()

        async def main():
            gateway = Gateway(
                [make_replica("r0", model, clock)],
                clock=clock,
                completion_cache=SemanticCache(max_bytes=64 * 1024),
            )
            await gateway.start()
            results = []
            for _ in range(2):
                results.append(
                    await asyncio.gather(
                        *[
                            gateway.submit(
                                GatewayRequest(BatchRequest(p, config=CFG))
                            )
                            for p in prompts
                        ]
                    )
                )
            await gateway.stop()
            return gateway, results

        gateway, (cold, warm) = run_virtual(main(), clock)
        assert [r.sequences for r in cold] == reference
        assert [r.sequences for r in warm] == reference
        assert gateway.stats.cache_hits == len(prompts)
        assert all(r.replica == "cache" for r in warm)
