"""Batch-aware dispatch helpers for application subsystems.

The application layers (CodexDB, text-to-SQL, data wrangling) talk to a
completion *client* — sometimes the real :class:`repro.api.CompletionClient`,
sometimes a reliability or fault-injection wrapper. Every one of them
has ``complete_batch``, and :func:`complete_many` sends a per-prompt hot
loop through it, so all prompts share the batched engine.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import List, Sequence


def complete_many(client, engine: str, prompts: Sequence[str], **kwargs) -> List:
    """Complete every prompt in one ``client.complete_batch`` call.

    Returns one :class:`~repro.api.client.CompletionResponse` per prompt,
    in prompt order. ``kwargs`` are forwarded unchanged to
    ``complete_batch``.
    """
    return list(client.complete_batch(engine, list(prompts), **kwargs))


def engine_serving_stats(client, engine: str) -> dict:
    """Serving-side counters for one engine, as a plain float dict.

    Unwraps reliability/fault wrappers (anything holding its inner
    client as ``.client``) until it finds an object exposing
    ``engine_stats``; returns ``{}`` when no layer does. The dict is the
    application-report shape: every :class:`~repro.api.client.EngineStats`
    counter plus its ``cache_hit_rate``.
    """
    inner = client
    while inner is not None and getattr(inner, "engine_stats", None) is None:
        inner = getattr(inner, "client", None)
    if inner is None:
        return {}
    stats = inner.engine_stats(engine)
    report = {name: float(value) for name, value in asdict(stats).items()}
    report["cache_hit_rate"] = stats.cache_hit_rate
    return report
