"""Semantic completion cache: skip prefill and decode for repeated prompts.

The :class:`~repro.serving.prefix.PrefixCache` reuses KV *state* but
every request still pays full decode. The data-management workloads
this repo serves (few-shot text-to-SQL sweeps, imputation, NeuralDB QA)
re-issue the same prompts, so the layer above it caches whole
*completions*: a byte-budgeted LRU keyed on ``(engine, prompt,
decode-params)``. A hit is a dict hit on the full key. The cached value
was produced by the same engine under the same decoding parameters (and
decoding is seeded-deterministic here), so returning it is
byte-identical to re-decoding.

The cache matches keys exactly and nothing else. Near-duplicate text
questions differ in a literal, a column or an operator, and each of
those changes the right SQL, so another prompt's completion is never a
safe answer.

The cache is generic over values: :class:`repro.api.CompletionClient`
stores :class:`~repro.api.client.CompletionResponse` objects keyed by
prompt text, while the :class:`~repro.serving.gateway.Gateway` stores
raw token sequences keyed by prompt ids
(:func:`completion_request_key`). Entries are grouped (by engine) so
model-identity invalidation can flush one engine without cooling the
rest, exactly like the prefix cache.

Shared state: the entry dict, LRU clock, byte counter, and ``stats``
all mutate on every lookup/insert with no synchronization — lookups
are writes (they touch recency and hit counters), so concurrent use
requires external serialization. The gateway respects this by calling
the cache only from synchronous methods on its event loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional

from repro.errors import GenerationError

#: default byte budget — completions are small; this holds thousands
DEFAULT_MAX_BYTES = 8 * 1024 * 1024

#: fixed per-entry bookkeeping charge (key tuple, links, counters)
_ENTRY_OVERHEAD = 64


def completion_request_key(request: Any) -> Optional[Hashable]:
    """Exact-match cache key for a serving-layer ``BatchRequest``.

    Covers everything that determines the output: prompt token ids,
    choice count, and the full decoding configuration (decoding is
    seeded, so sampled requests replay deterministically too). Returns
    ``None`` for constrained requests — a ``TokenConstraint`` is
    stateful and has no stable identity, so those are never cached.
    """
    if request.constraint is not None:
        return None
    config = request.config
    return (
        tuple(int(t) for t in request.prompt_ids),
        request.n,
        config.max_new_tokens,
        config.strategy,
        config.temperature,
        config.top_k,
        config.top_p,
        tuple(config.stop_ids),
        config.seed,
    )


@dataclass
class SemanticCacheStats:
    """Lookup/hit/byte accounting for one :class:`SemanticCache`."""

    lookups: int = 0
    hits: int = 0
    evictions: int = 0
    invalidations: int = 0
    oversized: int = 0
    bytes: int = 0
    skipped_prompt_tokens: int = 0
    skipped_completion_tokens: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass(frozen=True)
class CacheHit:
    """One successful lookup.

    The wrapper keeps a miss (``None``) apart from any cached value.
    """

    value: Any


class _Entry:
    """One cached completion."""

    __slots__ = (
        "key",
        "group",
        "value",
        "nbytes",
        "prompt_tokens",
        "completion_tokens",
        "last_used",
    )

    def __init__(
        self,
        key: Hashable,
        group: str,
        value: Any,
        nbytes: int,
        prompt_tokens: int,
        completion_tokens: int,
    ) -> None:
        self.key = key
        self.group = group
        self.value = value
        self.nbytes = nbytes
        self.prompt_tokens = prompt_tokens
        self.completion_tokens = completion_tokens
        self.last_used = 0


def _estimate_nbytes(value: Any) -> int:
    """Byte-size estimate for a cached value, without entry overhead.

    Understands the two value shapes the serving stack stores —
    response-like objects (``.choices`` with ``.text``) and token
    sequences (lists of int lists) — and falls back to ``repr`` length
    for anything else.
    """
    choices = getattr(value, "choices", None)
    if choices is not None:
        return sum(len(choice.text) for choice in choices)
    if isinstance(value, (list, tuple)) and all(
        isinstance(item, (list, tuple)) for item in value
    ):
        return sum(8 * len(item) for item in value)
    if isinstance(value, str):
        return len(value)
    return len(repr(value))


class SemanticCache:
    """Byte-budgeted LRU cache of whole completions, keyed exactly.

    Eviction is deterministic: entries age on a logical tick (every
    lookup that touches them refreshes it) and the least-recently-used
    entry is evicted first, with insertion order breaking ties — a
    seeded workload always leaves the same survivors.
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        if max_bytes <= 0:
            raise GenerationError("max_bytes must be positive")
        self.max_bytes = max_bytes
        self.stats = SemanticCacheStats()
        self._entries: Dict[Hashable, _Entry] = {}
        self._groups: Dict[str, Dict[Hashable, _Entry]] = {}
        self._tick = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def keys(self) -> List[Hashable]:
        """Cached keys in insertion order (testing/introspection)."""
        return list(self._entries)

    # -- lookup ------------------------------------------------------------
    def lookup(self, key: Hashable) -> Optional[CacheHit]:
        """Return a :class:`CacheHit` for ``key``, or ``None`` on a miss."""
        self.stats.lookups += 1
        self._tick += 1
        entry = self._entries.get(key)
        if entry is None:
            return None
        entry.last_used = self._tick
        self.stats.hits += 1
        self.stats.skipped_prompt_tokens += entry.prompt_tokens
        self.stats.skipped_completion_tokens += entry.completion_tokens
        return CacheHit(entry.value)

    # -- insert / invalidate ----------------------------------------------
    def insert(
        self,
        key: Hashable,
        value: Any,
        group: str = "default",
        prompt_tokens: int = 0,
        completion_tokens: int = 0,
    ) -> bool:
        """Store one completion; returns False if it exceeds the budget.

        An entry costs its value's estimate plus ``_ENTRY_OVERHEAD``.
        Re-inserting an existing key replaces the old entry. An entry
        whose own footprint exceeds ``max_bytes`` is rejected up front
        (``stats.oversized``) instead of evicting the whole cache for
        nothing — the PrefixCache oversized-prompt rule.
        """
        size = _estimate_nbytes(value) + _ENTRY_OVERHEAD
        if size > self.max_bytes:
            self.stats.oversized += 1
            return False
        old = self._entries.get(key)
        if old is not None:
            self._remove(old)
        entry = _Entry(
            key=key,
            group=group,
            value=value,
            nbytes=size,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
        )
        self._tick += 1
        entry.last_used = self._tick
        self._entries[key] = entry
        self._groups.setdefault(group, {})[key] = entry
        self.stats.bytes += size
        while self.stats.bytes > self.max_bytes:
            victim = min(
                self._entries.values(), key=lambda e: e.last_used
            )
            self._remove(victim)
            self.stats.evictions += 1
        return True

    def invalidate(self, group: str) -> int:
        """Drop every entry of ``group`` (model identity changed)."""
        entries = list(self._groups.get(group, {}).values())
        for entry in entries:
            self._remove(entry)
        if entries:
            self.stats.invalidations += 1
        return len(entries)

    def clear(self) -> None:
        """Drop every entry in every group (stats are kept)."""
        self._entries.clear()
        self._groups.clear()
        self.stats.bytes = 0

    def _remove(self, entry: _Entry) -> None:
        del self._entries[entry.key]
        group = self._groups.get(entry.group)
        if group is not None:
            group.pop(entry.key, None)
            if not group:
                del self._groups[entry.group]
        self.stats.bytes -= entry.nbytes
