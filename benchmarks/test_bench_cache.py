"""CACHE — semantic completion cache on a repeated few-shot sweep.

The paper's data-management workloads re-issue the same few-shot
prompts with high frequency (imputation over a column, text-to-SQL over
a workload). This benchmark replays a seeded sweep with a fixed repeat
rate through the :class:`~repro.api.CompletionClient` twice — cache off
vs cache on — and records hit rate, tokens skipped, and the end-to-end
speedup in ``benchmarks/BENCH_cache.json``.

Acceptance: every exact repeat is served from the cache (hit rate >=
repeat rate), exact hits are token-identical to uncached completion,
and the sweep speeds up >= 1.5x with the cache on.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.api import CompletionClient, bootstrap_hub

MAX_TOKENS = 12


@pytest.fixture(scope="module")
def hub():
    return bootstrap_hub(seed=0, steps=60, corpus_docs=60)


def few_shot_prompt(row: str) -> str:
    return (
        "the database stores sorted rows . the table returns cached "
        f"records . the index scans {row}"
    )


def seeded_sweep(num_requests: int = 60, repeat_fraction: float = 0.5):
    """A request schedule where ``repeat_fraction`` are exact repeats."""
    rng = np.random.default_rng(17)
    distinct = [few_shot_prompt(f"row {i} of the large results") for i in range(40)]
    schedule = []
    issued: list = []
    for _ in range(num_requests):
        if issued and rng.random() < repeat_fraction:
            schedule.append(issued[int(rng.integers(0, len(issued)))])
        else:
            schedule.append(distinct[len(set(issued)) % len(distinct)])
        issued.append(schedule[-1])
    repeats = len(schedule) - len(set(schedule))
    return schedule, repeats / len(schedule)


def run_sweep(client, schedule):
    start = time.perf_counter()
    responses = [
        client.complete("tiny-gpt", prompt, max_tokens=MAX_TOKENS)
        for prompt in schedule
    ]
    return responses, time.perf_counter() - start


def test_bench_cache_repeat_sweep(report_printer, bench_metrics, hub):
    schedule, repeat_rate = seeded_sweep()
    assert repeat_rate >= 0.30, "workload must contain >=30% repeats"

    uncached = CompletionClient(hub)
    cached = CompletionClient(hub, semantic_cache_bytes=4 * 1024 * 1024)

    baseline, cold_seconds = run_sweep(uncached, schedule)
    responses, warm_seconds = run_sweep(cached, schedule)

    # Exact hits are token-identical to uncached completion.
    for got, want in zip(responses, baseline):
        assert got.text == want.text
        assert got.usage == want.usage

    stats = cached.engine_stats("tiny-gpt")
    hit_rate = stats.cache_hit_rate
    expected_hits = len(schedule) - len(set(schedule))
    assert stats.cache_exact_hits == expected_hits, (
        "every exact repeat must be served from the cache"
    )
    assert hit_rate >= repeat_rate - 1e-9
    speedup = cold_seconds / warm_seconds
    assert speedup >= 1.5

    bench_metrics["cache/requests"] = len(schedule)
    bench_metrics["cache/repeat_rate"] = round(repeat_rate, 3)
    bench_metrics["cache/hit_rate"] = round(hit_rate, 3)
    bench_metrics["cache/exact_hits"] = stats.cache_exact_hits
    bench_metrics["cache/tokens_skipped"] = stats.cache_skipped_tokens
    bench_metrics["cache/decode_tokens_skipped"] = (
        stats.cache_skipped_completion_tokens
    )
    bench_metrics["cache/sweep_speedup"] = round(speedup, 2)
    report_printer(
        "CACHE: hit rate on a repeated few-shot sweep",
        [
            f"requests        : {len(schedule)} ({repeat_rate:.0%} repeats)",
            f"exact hits      : {stats.cache_exact_hits}",
            f"hit rate        : {hit_rate:.2f}",
            f"tokens skipped  : {stats.cache_skipped_tokens}",
            f"sweep speedup   : {speedup:.2f}x "
            f"({cold_seconds * 1000:.0f} ms -> {warm_seconds * 1000:.0f} ms)",
        ],
    )
