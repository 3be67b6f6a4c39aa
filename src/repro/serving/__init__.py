"""Batched inference serving for the numpy Transformer.

Vectorizes decoding across sequences: preallocated KV slabs
(:class:`KVCache`), padding-aware batched KV caches, chunked causal
prefill, per-sequence stop handling, a prompt-prefix K/V cache
(:class:`PrefixCache`), retire-and-admit continuous batching, and a
FIFO scheduler. See :class:`BatchedGenerator` for the engine — one
retire-and-admit decode loop — and :class:`BatchScheduler` for the
queueing front-end.
Speculative decoding is a per-step proposer inside that same loop: a
draft model (:func:`distill_draft`) proposes runs of tokens the target
verifies in one batched forward, token-identical to plain greedy
decoding, under barriered and continuous batching alike.
Above the scheduler, :class:`SemanticCache` memoizes whole
completions — exact-match on the full request key plus an opt-in
embedding-similarity tier — so repeated prompts skip prefill and
decode entirely.

On top of the scheduler sits the asyncio serving tier: the multi-tenant
:class:`Gateway` (admission control, load shedding, deadline dispatch,
replica failover over worker-thread decode) and the open-loop load
generator (:mod:`repro.serving.loadgen`) that traces its saturation
curve under deterministic virtual time.
"""

from repro.serving.dispatch import complete_many, engine_serving_stats
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
    ServiceModel,
)
from repro.serving.kvcache import KVCache
from repro.serving.loadgen import LoadReport, OpenLoopLoad, run_open_loop, sweep
from repro.serving.prefix import PrefixCache, PrefixCacheStats
from repro.serving.scheduler import BatchScheduler, SchedulerStats
from repro.serving.semcache import (
    CacheHit,
    SemanticCache,
    SemanticCacheStats,
    completion_request_key,
    hashed_embedding,
)
from repro.serving.speculative import distill_draft, draft_config

__all__ = [
    "BatchedGenerator",
    "BatchRequest",
    "BatchResult",
    "BatchScheduler",
    "distill_draft",
    "draft_config",
    "Gateway",
    "GatewayRequest",
    "GatewayResult",
    "GatewayStats",
    "GeneratorStats",
    "KVCache",
    "LoadReport",
    "OpenLoopLoad",
    "PrefixCache",
    "PrefixCacheStats",
    "CacheHit",
    "Replica",
    "SchedulerStats",
    "SemanticCache",
    "SemanticCacheStats",
    "ServiceModel",
    "complete_many",
    "completion_request_key",
    "hashed_embedding",
    "engine_serving_stats",
    "run_open_loop",
    "sweep",
]
