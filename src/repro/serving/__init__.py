"""Batched inference serving for the numpy Transformer.

Vectorizes decoding across sequences: padding-aware batched KV caches
(one preallocated slab per layer, one row per sequence), one causal
prefill forward per admission wave, per-sequence stop handling, a
prompt-prefix K/V cache (:class:`PrefixCache`), retire-and-admit
continuous batching, and a FIFO scheduler. See :class:`BatchedGenerator`
for the engine — one retire-and-admit decode loop whose every step
advances each active sequence by one token — and :class:`BatchScheduler`
for the queueing front-end. Above the scheduler, :class:`SemanticCache`
memoizes whole completions, keyed exactly on the full request, so
repeated prompts skip prefill and decode entirely.

On top of the scheduler sits the asyncio serving tier: the multi-tenant
:class:`Gateway` (admission control, load shedding, deadline dispatch,
replica failover over worker-thread decode) and the open-loop load
generator (:mod:`repro.serving.loadgen`) that traces its saturation
curve under deterministic virtual time.
"""

from repro.serving.dispatch import engine_serving_stats
from repro.serving.engine import (
    BatchedGenerator,
    BatchRequest,
    BatchResult,
    GeneratorStats,
)
from repro.serving.gateway import (
    Gateway,
    GatewayRequest,
    GatewayResult,
    GatewayStats,
    Replica,
)
from repro.serving.loadgen import LoadReport, OpenLoopLoad, run_open_loop, sweep
from repro.serving.prefix import PrefixCache, PrefixCacheStats
from repro.serving.scheduler import BatchScheduler, SchedulerStats
from repro.serving.semcache import (
    CacheHit,
    SemanticCache,
    SemanticCacheStats,
    completion_request_key,
)

__all__ = [
    "BatchedGenerator",
    "BatchRequest",
    "BatchResult",
    "BatchScheduler",
    "Gateway",
    "GatewayRequest",
    "GatewayResult",
    "GatewayStats",
    "GeneratorStats",
    "LoadReport",
    "OpenLoopLoad",
    "PrefixCache",
    "PrefixCacheStats",
    "CacheHit",
    "Replica",
    "SchedulerStats",
    "SemanticCache",
    "SemanticCacheStats",
    "completion_request_key",
    "engine_serving_stats",
    "run_open_loop",
    "sweep",
]
