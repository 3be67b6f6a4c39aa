"""Serving counters for application reports.

The application layers (CodexDB, text-to-SQL, data wrangling) talk to a
completion *client* — sometimes the real :class:`repro.api.CompletionClient`,
sometimes a reliability or fault-injection wrapper — and send their
prompts through its ``complete_batch``. :func:`engine_serving_stats`
finds the real client under the wrappers and reports its counters.
"""

from __future__ import annotations

from dataclasses import asdict


def engine_serving_stats(client, engine: str) -> dict:
    """Serving-side counters for one engine, as a plain float dict.

    Unwraps reliability/fault wrappers (anything holding its inner
    client as ``.client``) until it finds an object exposing
    ``engine_stats``; returns ``{}`` when no layer does. The dict is the
    application-report shape: every :class:`~repro.api.client.EngineStats`
    counter, its ``cache_hit_rate``, and the engine's prefix-cache
    ``prefix_hits`` and ``prefix_reused_tokens``. The prefix counts
    belong to the cache, so they restart when the hub re-registers the
    engine with a new model (and read 0 when the client has no cache).
    """
    inner = client
    while inner is not None and getattr(inner, "engine_stats", None) is None:
        inner = getattr(inner, "client", None)
    if inner is None:
        return {}
    stats = inner.engine_stats(engine)
    report = {name: float(value) for name, value in asdict(stats).items()}
    report["cache_hit_rate"] = stats.cache_hit_rate
    prefix = inner.prefix_cache(engine)
    report["prefix_hits"] = float(prefix.stats.hits if prefix else 0)
    report["prefix_reused_tokens"] = float(prefix.stats.reused_tokens if prefix else 0)
    return report
