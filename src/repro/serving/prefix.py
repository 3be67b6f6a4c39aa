"""Radix-tree prefix cache: reuse KV states across prompts.

The application workloads (text-to-SQL sweeps, few-shot imputation,
CodexDB candidate waves) drive the model with prompts that share a long
identical prefix — the instruction header plus the worked-example block
— and differ only in the final row or question. Because attention keys
and values at position ``t`` depend only on tokens ``0..t`` (and
positions are absolute), the per-layer K/V of a shared prefix is
*identical* across all prompts that start with it. This module caches
those K/V columns in a radix tree so one prefill of the header serves
the whole sweep; each later request only prefills its suffix.

Layout: a radix tree whose nodes each hold a run of tokens and one
read-only ``(layers, 2, heads, run, head_dim)`` K/V array. Lookup walks
a handful of nodes and returns views of one node's array, or one
``np.concatenate`` across the matched path; insert copies only the
unseen suffix, as one array. A prompt that diverges or stops inside a
node splits it (copying both halves), so every position of a node has
one age and LRU eviction, which trims the tails of the least-recently
used leaves under ``max_bytes``, behaves per position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import GenerationError

#: default byte budget — generous for the test-scale models here
DEFAULT_MAX_BYTES = 32 * 1024 * 1024

#: per-layer (k, v) span pair, each (heads, tokens, head_dim)
Span = Tuple[np.ndarray, np.ndarray]


@dataclass
class PrefixCacheStats:
    """Hit/miss/byte accounting for one :class:`PrefixCache`."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    reused_tokens: int = 0
    inserted_tokens: int = 0
    evictions: int = 0
    oversized: int = 0
    bytes: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


def _frozen(array) -> np.ndarray:
    """A read-only copy, so stored runs never alias a caller's buffer."""
    array = np.array(array)
    array.flags.writeable = False
    return array


class _Run:
    """A run of cached token positions: one K/V array plus tree links."""

    __slots__ = ("tokens", "kv", "last_used", "parent", "children")

    def __init__(self, tokens: Tuple[int, ...], kv, last_used, parent, children=None):
        self.tokens, self.kv, self.last_used = tokens, kv, last_used
        self.parent, self.children = parent, children or {}
        for child in self.children.values():
            child.parent = self


class PrefixCache:
    """LRU-bounded radix-tree cache of per-layer prompt K/V states.

    Shared state: the tree, LRU clock, byte budget, and ``stats`` all
    mutate on every lookup/insert with no synchronization — lookups are
    writes here (they touch recency and hit counters, and split nodes),
    so even read-mostly concurrent use races. The
    :mod:`repro.analysis.concurrency` audit reports every such site;
    async callers must serialize access.
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        if max_bytes <= 0:
            raise GenerationError("max_bytes must be positive")
        self.max_bytes = max_bytes
        self.stats = PrefixCacheStats()
        self._tick = 0
        self.clear()

    def __len__(self) -> int:
        """Number of cached token positions."""
        nodes = [self._root]
        for node in nodes:  # breadth first: the list grows as it is walked
            nodes.extend(node.children.values())
        return sum(len(node.tokens) for node in nodes)

    def peek_length(self, token_ids: Sequence[int]) -> int:
        """Longest cached prefix length, without touching LRU or stats."""
        return self._walk(tuple(token_ids))[1]

    def lookup(
        self, token_ids: Sequence[int], max_len: Optional[int] = None
    ) -> Tuple[int, Optional[List[Span]]]:
        """Return ``(match_len, per-layer (k, v) spans)`` for the prompt.

        ``max_len`` caps the match (callers typically pass
        ``len(prompt) - 1`` so at least one token remains to prefill,
        which is what produces the next-token logits). A miss returns
        ``(0, None)``. Matched positions are LRU-touched. The spans are
        read-only views of one node's array, or one concatenated copy.
        """
        self.stats.lookups += 1
        limit = len(token_ids) if max_len is None else min(max_len, len(token_ids))
        path, match = self._touch(tuple(token_ids[:limit]))
        if not match:
            self.stats.misses += 1
            return 0, None
        self.stats.hits += 1
        self.stats.reused_tokens += match
        kv = np.concatenate([n.kv for n in path], axis=3) if path[1:] else path[0].kv
        return match, [(kv[layer, 0], kv[layer, 1]) for layer in range(len(kv))]

    def insert(self, token_ids: Sequence[int], layers: Sequence[Span]) -> int:
        """Store the prompt's K/V; returns the number of new positions.

        ``layers`` holds one ``(k, v)`` pair per model layer, each of
        shape (heads, len(token_ids), head_dim) — the live columns of a
        prefilled cache. Positions already in the tree are only
        LRU-touched; the unseen suffix is copied in as one array (the
        slab arrays are reused by the engine afterwards, so views must
        not leak). Spans that do not fit the prompt or the cached layout
        raise :class:`GenerationError` before anything changes.

        A prompt whose K/V alone exceed ``max_bytes`` is rejected up
        front (counted in ``stats.oversized``) instead of being stored:
        inserting it first and evicting after would transiently blow the
        byte budget, copy every column for nothing, and then LRU-evict
        the *existing* entries along with the prompt's own header —
        leaving the cache cold.
        """
        self._check_layout(len(token_ids), layers)
        if sum(k.nbytes + v.nbytes for k, v in layers) > self.max_bytes:
            self.stats.oversized += 1
            return 0
        ids = tuple(token_ids)
        path, depth = self._touch(ids)
        added = len(ids) - depth
        if added:
            parent = path[-1] if path else self._root
            kv = _frozen([(k[:, depth:], v[:, depth:]) for k, v in layers])
            node = _Run(ids[depth:], kv, self._tick, parent)
            parent.children[ids[depth]] = node
            self._leaves.discard(parent)
            self._leaves.add(node)
            self.stats.bytes += kv.nbytes
            self.stats.inserted_tokens += added
            if self.stats.bytes > self.max_bytes:
                self._evict()
        return added

    def clear(self) -> None:
        """Drop every cached position (stats are kept)."""
        self._root = _Run((), None, 0, None)
        self._leaves: Set[_Run] = set()
        self.stats.bytes = 0

    def _check_layout(self, length: int, layers: Sequence[Span]) -> None:
        shapes = {(len(layers), 2) + a.shape for pair in layers for a in pair}
        shape = min(shapes, default=())
        cached = next(iter(self._root.children.values()), None)
        if cached is not None:  # later inserts must match the stored layout
            shape = cached.kv.shape[:3] + (length,) + cached.kv.shape[4:]
        if shapes != {shape} or len(shape) != 5 or shape[3] != length:
            raise GenerationError(
                f"K/V spans {sorted(shapes)} do not fit {length} tokens as {shape}"
            )

    def _walk(self, ids: Tuple[int, ...]) -> Tuple[List[_Run], int, int]:
        """Matched nodes, match length, and tokens matched in the last node."""
        node, path, depth, cut = self._root, [], 0, 0
        while depth < len(ids):
            child = node.children.get(ids[depth])
            if child is None:
                break
            run = child.tokens
            cut = min(len(run), len(ids) - depth)
            if run[:cut] != ids[depth : depth + cut]:
                cut = next(c for c in range(1, cut) if run[c] != ids[depth + c])
            path.append(child)
            depth += cut
            if cut < len(run):
                break
            node = child
        return path, depth, cut

    def _touch(self, ids: Tuple[int, ...]) -> Tuple[List[_Run], int]:
        """Walk ``ids``; split the node the match ends inside; touch the path."""
        self._tick += 1
        path, depth, cut = self._walk(ids)
        if path and cut < len(path[-1].tokens):
            node = path[-1]
            tail = _Run(
                node.tokens[cut:], _frozen(node.kv[..., cut:, :]),
                node.last_used, node, node.children,
            )
            node.tokens, node.children = node.tokens[:cut], {tail.tokens[0]: tail}
            node.kv = _frozen(node.kv[..., :cut, :])
            if not tail.children:  # the leaf moves to the tail
                self._leaves.symmetric_difference_update((node, tail))
        for node in path:
            node.last_used = self._tick
        return path, depth

    def _evict(self) -> None:
        """Trim LRU leaf tails, position by position, until the budget holds."""
        while self.stats.bytes > self.max_bytes and self._leaves:
            node = min(self._leaves, key=lambda leaf: leaf.last_used)
            width = len(node.tokens)
            per_token = node.kv.nbytes // width
            drop = min(width, -(-(self.stats.bytes - self.max_bytes) // per_token))
            self.stats.bytes -= drop * per_token
            self.stats.evictions += drop
            if drop < width:
                node.tokens = node.tokens[:-drop]
                node.kv = _frozen(node.kv[..., :-drop, :])
                continue
            self._leaves.remove(node)
            del node.parent.children[node.tokens[0]]
            if not node.parent.children and node.parent is not self._root:
                self._leaves.add(node.parent)


def common_prefix_length(prompts: Sequence[Sequence[int]]) -> int:
    """Length of the longest token prefix shared by *all* prompts."""
    if not prompts:
        return 0
    first, shared = prompts[0], min(len(ids) for ids in prompts)
    for ids in prompts[1:]:
        shared = next((d for d in range(shared) if ids[d] != first[d]), shared)
    return shared
