"""GATEWAY — the async serving front door under open-loop load.

The hosted APIs the paper's workloads depend on are multi-tenant: many
callers share a few replicas behind admission control, and the provider
sheds excess load (429s) rather than letting queues grow without bound.
This benchmark drives `repro.serving.Gateway` with an **open-loop**
Poisson arrival process (arrivals do not slow down when the server
struggles — the regime where shedding matters) on a deterministic
virtual clock, sweeping offered load from well under capacity to 2x
saturation, and measures the saturation curve: goodput, shed rate, and
accepted-request p50/p99 latency at each point. A second experiment
kills a replica mid-decode with an injected fault and verifies the
failover guarantee: every admitted request completes exactly once with
greedy output token-identical to the direct scheduler path.

Every decode step is charged a fixed, modeled service time
(``SECONDS_PER_STEP``), not a measured one, so goodput and latency in
the sweep are modeled figures; the report labels each such line.
Virtual time makes the sweep both fast (a minute of simulated traffic
runs in milliseconds of wall time) and exactly reproducible from its
seed. Machine-readable results land in ``benchmarks/BENCH_gateway.json``
via the ``bench_metrics`` fixture's ``gateway/`` group routing.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.generation import GenerationConfig
from repro.models import GPTModel, ModelConfig
from repro.reliability import FaultInjector, FaultProfile
from repro.reliability.aclock import AsyncVirtualClock, run_virtual
from repro.serving import (
    BatchRequest,
    BatchScheduler,
    Gateway,
    GatewayRequest,
    Replica,
)
from repro.serving.loadgen import sweep

NEW_TOKENS = 8
MAX_BATCH = 8
#: modeled (not measured) virtual seconds charged per decode step
SECONDS_PER_STEP = 0.01
#: the label on every report line derived from SECONDS_PER_STEP
MODELED = f"modeled service time {SECONDS_PER_STEP} s/step"
#: ideal throughput with full batches: MAX_BATCH requests retire every
#: NEW_TOKENS decode steps
NOMINAL_CAPACITY = MAX_BATCH / (NEW_TOKENS * SECONDS_PER_STEP)
MULTIPLIERS = (0.25, 0.5, 1.0, 2.0)
DURATION = 5.0

CFG = GenerationConfig(max_new_tokens=NEW_TOKENS)


@pytest.fixture(scope="module")
def model():
    return GPTModel(ModelConfig.tiny(vocab_size=48), seed=7)


@pytest.fixture(scope="module")
def prompts():
    rng = np.random.default_rng(3)
    return [
        list(map(int, rng.integers(1, 48, size=int(n))))
        for n in rng.integers(2, 12, size=12)
    ]


def make_replica(name, model, clock, injector=None):
    return Replica(
        name,
        model,
        max_batch=MAX_BATCH,
        clock=clock.virtual,
        seconds_per_decode_step=SECONDS_PER_STEP,
        injector=injector,
    )


def test_saturation_curve(model, prompts, bench_metrics, report_printer):
    clock = AsyncVirtualClock()

    def make_gateway():
        return Gateway(
            [make_replica("r0", model, clock)], clock=clock, max_queue=16
        )

    def make_request(i):
        return GatewayRequest(BatchRequest(prompts[i % len(prompts)], config=CFG))

    async def main():
        return await sweep(
            make_gateway,
            make_request,
            rates=[m * NOMINAL_CAPACITY for m in MULTIPLIERS],
            duration=DURATION,
            clock=clock,
            seed=42,
        )

    reports = run_virtual(main(), clock)

    lines = [
        "offered(x)   goodput  shed%   p50      p99      p99 wait",
    ]
    for mult, report in zip(MULTIPLIERS, reports):
        lines.append(
            f"{mult:>8.2f}x  {report.goodput:>8.1f}  {report.shed_rate:>5.1%}"
            f"  {report.p50_latency:>7.3f}  {report.p99_latency:>7.3f}"
            f"  {report.p99_queue_wait:>7.3f}  ({MODELED})"
        )
        bench_metrics[f"gateway/goodput_at_{mult}x"] = report.goodput
        bench_metrics[f"gateway/shed_rate_at_{mult}x"] = report.shed_rate
        bench_metrics[f"gateway/p99_latency_at_{mult}x"] = report.p99_latency
    light, half, saturated, overloaded = reports
    peak = max(r.goodput for r in reports[:-1])
    bench_metrics["gateway/nominal_capacity"] = NOMINAL_CAPACITY
    bench_metrics["gateway/peak_goodput"] = peak
    bench_metrics["gateway/overload_goodput_ratio"] = overloaded.goodput / peak
    bench_metrics["gateway/overload_p99_over_saturated_p99"] = (
        overloaded.p99_latency / saturated.p99_latency
    )
    lines.append(
        f"peak goodput {peak:.1f} req/s; at 2x offered load the gateway "
        f"sheds {overloaded.shed_rate:.1%} and holds "
        f"{overloaded.goodput / peak:.1%} of peak goodput ({MODELED})"
    )
    report_printer(
        f"GATEWAY — open-loop saturation sweep (virtual time, {MODELED})", lines
    )

    # Under capacity: no shedding, everything completes.
    assert light.shed == 0 and half.shed == 0
    assert light.completed == light.submitted
    # The acceptance criteria: at 2x saturation the gateway sheds
    # rather than queueing, keeps accepted p99 bounded, and holds
    # goodput within 10% of the single-replica peak.
    assert overloaded.shed_rate > 0.2
    assert overloaded.p99_latency < 2.0 * saturated.p99_latency
    assert overloaded.goodput > 0.9 * peak


def test_failover_token_identity(model, prompts, bench_metrics, report_printer):
    scheduler = BatchScheduler(model, max_batch_size=MAX_BATCH, continuous=True)
    tickets = [scheduler.submit(BatchRequest(p, config=CFG)) for p in prompts]
    direct = scheduler.run()
    reference = [direct[t].sequences for t in tickets]

    clock = AsyncVirtualClock()

    async def main():
        injector = FaultInjector(FaultProfile(rate_limit_every=5), clock=None)
        bad = make_replica("bad", model, clock, injector=injector)
        good = make_replica("good", model, clock)
        gateway = Gateway([bad, good], clock=clock, max_queue=len(prompts))
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

    identical = [r.sequences for r in results] == reference
    stats = gateway.stats
    bench_metrics["gateway/failover_token_identical"] = float(identical)
    bench_metrics["gateway/failover_completed"] = float(stats.completed)
    bench_metrics["gateway/failover_admitted"] = float(stats.admitted)
    bench_metrics["gateway/failover_replica_failures"] = float(
        stats.replica_failures
    )
    bench_metrics["gateway/failover_reattempts"] = float(stats.failovers)

    report_printer(
        "GATEWAY — failover under injected replica kill",
        [
            f"admitted {stats.admitted}, completed {stats.completed} "
            f"(exactly once), replica failures {stats.replica_failures}, "
            f"re-admitted {stats.failovers}",
            f"greedy outputs token-identical to direct scheduler: {identical}",
        ],
    )

    assert identical
    assert stats.completed == stats.admitted == len(prompts)
    assert stats.replica_failures >= 1
