"""Per-layer metrics: what to wrap, and how spans become numbers.

``TARGETS`` names, for every per-layer metric ``BENCHMARK.json``
declares, the end-to-end metric and workload it should move; the
declaration owns its unit and direction. :func:`instrument` wraps the callables each layer is entered through;
:func:`measure` turns the traced phase's spans, the stats objects'
deltas and the workload's own outputs into one value per metric. A
layer a workload bypasses reads 0.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

from repro.durability import database as durable
from repro.durability.wal import WriteAheadLog
from repro.models.gpt import GPTModel
from repro.serving.prefix import PrefixCache
from repro.serving.scheduler import BatchScheduler
from repro.sql import engine as sql_engine
from repro.sql.cluster import SINGLE_SHARD, coordinator
from repro.sql.cluster.replicate import ShardReplicator

from spans import Tracer
from workloads import Phase, percentile


#: every per-layer metric of ``BENCHMARK.json`` -> (the end-to-end metric
#: it should move, the workload it should move it on)
TARGETS: Dict[str, Tuple[str, str]] = {
    "loadgen.late_p90_ms": ("p50_ms", "t2sql-online"),
    "training.fit_s": ("setup_s", "t2sql-online"),
    "tokenizers.encode_us": ("p50_ms", "t2sql-online"),
    "tokenizers.decode_us": ("p50_ms", "t2sql-online"),
    "gateway.queue_wait_p50_ms": ("p50_ms", "t2sql-online"),
    "gateway.queue_wait_p90_ms": ("p50_ms", "t2sql-online"),
    "gateway.batch_mean": ("p50_ms", "t2sql-online"),
    "gateway.shed": ("ops_per_s", "t2sql-online"),
    "semcache.hit_rate": ("p50_ms", "t2sql-online"),
    "semcache.evictions": ("p50_ms", "t2sql-online"),
    "semcache.lookup_us": ("p50_ms", "t2sql-online"),
    "semcache.insert_us": ("p50_ms", "t2sql-online"),
    "scheduler.self_ms_per_token": ("ops_per_s", "t2sql-batch"),
    "scheduler.peak_batch": ("ops_per_s", "t2sql-batch"),
    "scheduler.refills": ("ops_per_s", "t2sql-batch"),
    "prefix.hit_rate": ("ops_per_s", "fewshot-prefill"),
    "prefix.reused_token_share": ("ops_per_s", "fewshot-prefill"),
    "prefix.lookup_us": ("ops_per_s", "fewshot-prefill"),
    "prefix.insert_us": ("ops_per_s", "fewshot-prefill"),
    "prefix.evictions": ("ops_per_s", "fewshot-prefill"),
    "prefix.bytes_mb": ("live_anon_mb", "fewshot-prefill"),
    "model.prefill_chunk_ms": ("ops_per_s", "fewshot-prefill"),
    "model.prefill_tokens": ("ops_per_s", "fewshot-prefill"),
    "model.prefill_share": ("ops_per_s", "fewshot-prefill"),
    "model.decode_step_ms": ("ops_per_s", "t2sql-batch"),
    "model.decode_rows_per_step": ("ops_per_s", "t2sql-batch"),
    "model.decode_share": ("ops_per_s", "t2sql-batch"),
    # The SQL the translator writes sets the cluster's work per answer:
    # a rejected query stops at parse, a wrong join costs more than gold.
    "text2sql.answer_accuracy": ("p50_ms", "t2sql-online"),
    "text2sql.invalid_sql_share": ("p50_ms", "t2sql-online"),
    "text2sql.accuracy_easy": ("p50_ms", "t2sql-online"),
    "text2sql.accuracy_medium": ("p50_ms", "t2sql-online"),
    "text2sql.accuracy_hard": ("p50_ms", "t2sql-online"),
    "sql.parse_us": ("p50_ms", "sql-rw"),
    "sql.execute_select_ms": ("p50_ms", "sql-rw"),
    "sql.rows_examined_per_row": ("p50_ms", "sql-rw"),
    "cluster.execute_ms": ("p50_ms", "sql-rw"),
    "cluster.plan_us": ("p50_ms", "sql-rw"),
    "cluster.merge_ms": ("ops_per_s", "sql-rw"),
    "cluster.single_shard_share": ("p50_ms", "sql-rw"),
    "cluster.fanout_speedup_measured": ("p50_ms", "t2sql-online"),
    "cluster.fanout_speedup_modeled": ("p50_ms", "t2sql-online"),
    "durability.sync_ms_p50": ("p50_ms", "sql-rw"),
    "durability.sync_ms_p90": ("ops_per_s", "sql-rw"),
    "durability.syncs_per_write": ("ops_per_s", "sql-rw"),
    "durability.wal_bytes_per_sql_byte": ("ops_per_s", "sql-rw"),
    "replicate.ship_ms": ("ops_per_s", "sql-rw"),
    "replicate.lag_max": ("ops_per_s", "sql-rw"),
    "harness.trace_overhead": ("p50_ms", "t2sql-online"),
}


def _gen_counts(scheduler) -> tuple:
    stats = scheduler.generator.stats
    return stats.generated_tokens, stats.refills


def _run_attrs(args, kwargs, result, was) -> Dict[str, int]:
    tokens, refills = _gen_counts(args[0])
    return {
        "tokens": tokens - was[0],
        "refills": refills - was[1],
        "peak": args[0].stats.peak_batch,
    }


def instrument(tracer: Tracer, state) -> None:
    """Wrap each layer's entry points for one traced phase."""
    tokenizer = getattr(state, "tokenizer", None)
    if tokenizer is not None:
        tracer.wrap(tokenizer, "encode", "tokenizers.encode")
        tracer.wrap(tokenizer, "decode", "tokenizers.decode")
    cache = getattr(state, "cache", None)
    if cache is not None:
        tracer.wrap(cache, "lookup", "semcache.lookup")
        tracer.wrap(cache, "insert", "semcache.insert")

    tracer.wrap(
        BatchScheduler, "run", "scheduler.run",
        before=lambda args, kwargs: _gen_counts(args[0]),
        after=_run_attrs,
    )
    tracer.wrap(
        PrefixCache, "lookup", "prefix.lookup",
        after=lambda args, kwargs, result, was: {
            "match": result[0], "asked": len(args[1]),
        },
    )
    tracer.wrap(
        PrefixCache, "insert", "prefix.insert",
        before=lambda args, kwargs: args[0].stats.evictions,
        after=lambda args, kwargs, result, was: {
            "evicted": args[0].stats.evictions - was, "bytes": args[0].stats.bytes,
        },
    )
    tracer.wrap(
        GPTModel, "encode_chunk", "model.encode_chunk",
        after=lambda args, kwargs, result, was: {
            "rows": int(args[1].shape[0]), "width": int(args[1].shape[1]),
        },
    )

    for module in (coordinator, sql_engine, durable):
        tracer.wrap(module, "parse_sql", "sql.parse")
    for module in (coordinator, sql_engine):
        tracer.wrap(
            module, "execute_select", "sql.execute_select",
            after=lambda args, kwargs, result, was: {
                "examined": args[3].rows_scanned + args[3].join_probes,
                "returned": len(result[1]),
            },
        )

    cluster = getattr(state, "cluster", None)
    if cluster is not None:
        tracer.wrap(cluster, "execute", "cluster.execute")
        tracer.wrap(coordinator, "plan_select", "cluster.plan")
        tracer.wrap(cluster, "_fan_out", "cluster.fan_out")
        tracer.wrap(
            cluster, "_run_fan_out", "cluster.run_fan_out",
            after=lambda args, kwargs, result, was: {
                "modeled": cluster.stats.modeled_parallel_speedup(),
            },
        )
        tracer.wrap(coordinator, "merge_scatter", "cluster.merge")
        tracer.wrap(cluster, "_merge_partials", "cluster.merge")

    tracer.wrap(WriteAheadLog, "sync", "durability.sync")
    tracer.wrap(
        ShardReplicator, "ship", "replicate.ship",
        before=lambda args, kwargs: args[0].lag(),
        after=lambda args, kwargs, result, was: {"lag": was},
    )


def snapshot(state) -> Dict[str, object]:
    """Counters of the stats objects a phase is measured by; ``measure``
    takes their change over the phase."""
    out: Dict[str, object] = {}
    gateway = getattr(state, "gateway", None)
    if gateway is not None:
        stats = gateway.stats
        out["admitted"] = stats.admitted
        out["batches"] = stats.dispatched_batches
        out["shed"] = stats.shed
    cache = getattr(state, "cache", None)
    if cache is not None:
        out["cache_lookups"] = cache.stats.lookups
        out["cache_hits"] = cache.stats.hits
        out["cache_evictions"] = cache.stats.evictions
    cluster = getattr(state, "cluster", None)
    if cluster is not None:
        out["selects"] = cluster.stats.selects
        out["single"] = cluster.stats.by_strategy.get(SINGLE_SHARD, 0)
        out["log_bytes"] = sum(
            path.stat().st_size for path in cluster.directory.rglob("*.log")
        )
    return out


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def measure(
    tracer: Tracer,
    before: Dict[str, object],
    after: Dict[str, object],
    phase: Phase,
    wall: float,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """One value per ``TARGETS`` metric for the traced phase.

    ``extra`` carries what the workload itself knows: ``fit_s``, the
    answer-quality shares, the write statements' count and SQL bytes,
    and ``trace_overhead``.
    """
    delta = {key: after[key] - before[key] for key in after}

    def attrs(name: str) -> List[Dict]:
        return [span.attrs for span in tracer.named(name)]

    m: Dict[str, float] = {name: 0.0 for name in TARGETS}

    m["loadgen.late_p90_ms"] = percentile(phase.lates, 90) * 1e3
    m["training.fit_s"] = extra.get("fit_s", 0.0)
    m["tokenizers.encode_us"] = _mean(tracer.durations("tokenizers.encode")) * 1e6
    m["tokenizers.decode_us"] = _mean(tracer.durations("tokenizers.decode")) * 1e6

    if "admitted" in delta:
        m["gateway.queue_wait_p50_ms"] = percentile(phase.queue_waits, 50) * 1e3
        m["gateway.queue_wait_p90_ms"] = percentile(phase.queue_waits, 90) * 1e3
        m["gateway.batch_mean"] = _ratio(delta["admitted"], delta["batches"])
        m["gateway.shed"] = delta["shed"]
    if "cache_lookups" in delta:
        m["semcache.hit_rate"] = _ratio(delta["cache_hits"], delta["cache_lookups"])
        m["semcache.evictions"] = delta["cache_evictions"]
        m["semcache.lookup_us"] = _mean(tracer.durations("semcache.lookup")) * 1e6
        m["semcache.insert_us"] = _mean(tracer.durations("semcache.insert")) * 1e6

    runs = attrs("scheduler.run")
    tokens = sum(run["tokens"] for run in runs)
    m["scheduler.self_ms_per_token"] = (
        _ratio(sum(tracer.self_times("scheduler.run")), tokens) * 1e3
    )
    m["scheduler.peak_batch"] = max((run["peak"] for run in runs), default=0)
    m["scheduler.refills"] = sum(run["refills"] for run in runs)

    lookups = attrs("prefix.lookup")
    inserts = attrs("prefix.insert")
    m["prefix.hit_rate"] = _ratio(sum(l["match"] > 0 for l in lookups), len(lookups))
    m["prefix.reused_token_share"] = _ratio(
        sum(l["match"] for l in lookups), sum(l["asked"] for l in lookups)
    )
    m["prefix.lookup_us"] = _mean(tracer.durations("prefix.lookup")) * 1e6
    m["prefix.insert_us"] = _mean(tracer.durations("prefix.insert")) * 1e6
    m["prefix.evictions"] = sum(i["evicted"] for i in inserts)
    m["prefix.bytes_mb"] = max((i["bytes"] for i in inserts), default=0) / 2**20

    chunks = tracer.named("model.encode_chunk")
    prefill = [s for s in chunks if s.attrs["width"] > 1]
    decode = [s for s in chunks if s.attrs["width"] == 1]
    m["model.prefill_chunk_ms"] = _mean([s.duration for s in prefill]) * 1e3
    m["model.prefill_tokens"] = sum(s.attrs["rows"] * s.attrs["width"] for s in prefill)
    m["model.prefill_share"] = sum(s.duration for s in prefill) / wall
    m["model.decode_step_ms"] = _mean([s.duration for s in decode]) * 1e3
    m["model.decode_rows_per_step"] = _mean([s.attrs["rows"] for s in decode])
    m["model.decode_share"] = sum(s.duration for s in decode) / wall

    for key in ("answer_accuracy", "invalid_sql_share", "accuracy_easy",
                "accuracy_medium", "accuracy_hard"):
        m[f"text2sql.{key}"] = extra.get(key, 0.0)

    selects = attrs("sql.execute_select")
    m["sql.parse_us"] = _mean(tracer.durations("sql.parse")) * 1e6
    m["sql.execute_select_ms"] = _mean(tracer.durations("sql.execute_select")) * 1e3
    m["sql.rows_examined_per_row"] = _ratio(
        sum(s["examined"] for s in selects), sum(s["returned"] for s in selects)
    )

    if "selects" in delta:
        main = threading.main_thread().ident
        on_pool = [
            s.duration for s in tracer.named("sql.execute_select") if s.thread != main
        ]
        m["cluster.execute_ms"] = _mean(tracer.durations("cluster.execute")) * 1e3
        m["cluster.plan_us"] = _mean(tracer.durations("cluster.plan")) * 1e6
        m["cluster.merge_ms"] = _mean(tracer.durations("cluster.merge")) * 1e3
        m["cluster.single_shard_share"] = _ratio(delta["single"], delta["selects"])
        m["cluster.fanout_speedup_measured"] = _ratio(
            sum(on_pool), sum(tracer.durations("cluster.fan_out"))
        )
        m["cluster.fanout_speedup_modeled"] = _mean(
            [a["modeled"] for a in attrs("cluster.run_fan_out")]
        )
        m["durability.wal_bytes_per_sql_byte"] = _ratio(
            delta["log_bytes"], extra.get("write_sql_bytes", 0)
        )

    syncs = tracer.durations("durability.sync")
    m["durability.sync_ms_p50"] = percentile(syncs, 50) * 1e3
    m["durability.sync_ms_p90"] = percentile(syncs, 90) * 1e3
    m["durability.syncs_per_write"] = _ratio(len(syncs), extra.get("writes", 0))
    m["replicate.ship_ms"] = _mean(tracer.durations("replicate.ship")) * 1e3
    m["replicate.lag_max"] = max((a["lag"] for a in attrs("replicate.ship")), default=0)
    m["harness.trace_overhead"] = extra.get("trace_overhead", 0.0)
    return {name: float(value) for name, value in m.items()}
