"""Property and regression tests for the radix-tree PrefixCache.

The oracle is a per-position reference model: a dict from each cached
prefix tuple to the K/V column inserted for it, with one LRU age per
prefix and eviction of the least-recently-used leaf prefix, one position
at a time. The radix tree stores runs of positions in one array per
node, splits nodes and trims leaf tails; none of that may be visible
through lookups, lengths, byte accounting or eviction counts.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GenerationError
from repro.serving import PrefixCache, PrefixCacheStats

LAYERS, HEADS, HEAD_DIM = 2, 2, 3
#: bytes one cached position occupies: float64 K and V for every layer
POSITION_BYTES = LAYERS * 2 * HEADS * HEAD_DIM * 8


def _spans(length: int, stamp: int, layers: int = LAYERS):
    """A prompt's K/V as the engine hands it over: views of one slab.

    Returns the slab too, so a test can scribble on it after insert.
    Every (layer, k/v, head, position, dim) value is distinct, and
    ``stamp`` makes each call's values distinct from every other call's.
    """
    slab = np.arange(layers * 2 * HEADS * length * HEAD_DIM, dtype=np.float64)
    slab = slab.reshape(layers, 2, HEADS, length, HEAD_DIM) + 1e6 * stamp
    return slab, [(slab[layer, 0], slab[layer, 1]) for layer in range(layers)]


class ReferenceCache:
    """Per-position LRU model of the prefix cache."""

    def __init__(self, budget_positions: int) -> None:
        self.budget = budget_positions
        self.columns = {}  # prefix tuple -> (layers, 2, heads, head_dim)
        self.age = {}
        self.tick = 0
        self.evictions = 0

    def match(self, ids) -> int:
        depth = 0
        while depth < len(ids) and tuple(ids[: depth + 1]) in self.columns:
            depth += 1
        return depth

    def lookup(self, ids) -> int:
        self.tick += 1
        depth = self.match(ids)
        for end in range(1, depth + 1):
            self.age[tuple(ids[:end])] = self.tick
        return depth

    def insert(self, ids, slab) -> int:
        if len(ids) > self.budget:
            return 0  # oversized: rejected before anything changes
        self.tick += 1
        added = 0
        for end in range(1, len(ids) + 1):
            key = tuple(ids[:end])
            if key not in self.columns:
                self.columns[key] = slab[:, :, :, end - 1].copy()
                added += 1
            self.age[key] = self.tick
        while len(self.columns) > self.budget:
            parents = {key[:-1] for key in self.columns}
            leaf = min(
                (key for key in self.columns if key not in parents),
                key=self.age.__getitem__,
            )
            del self.columns[leaf], self.age[leaf]
            self.evictions += 1
        return added

    def expected(self, ids, depth) -> np.ndarray:
        return np.stack(
            [self.columns[tuple(ids[:end])] for end in range(1, depth + 1)], axis=3
        )


def _stored_nbytes(cache: PrefixCache) -> int:
    """Sum of the arrays the tree actually holds (white-box).

    Every stored array must own its memory and be read-only: a view
    would pin a caller's slab, or the freed part of a split or trimmed
    run, and a writeable one could be changed through a lookup.
    """
    nodes = list(cache._root.children.values())
    total = 0
    while nodes:
        node = nodes.pop()
        assert node.kv.base is None and not node.kv.flags.writeable
        total += node.kv.nbytes
        nodes.extend(node.children.values())
    return total


TOKENS = st.integers(0, 3)


@st.composite
def scenarios(draw):
    """A budget plus a stream of operations over shared headers.

    Prompts are a cut of one of a few headers plus a short tail, so the
    stream has shared headers, divergence inside a stored run, prompts
    that are strict prefixes of cached ones, and repeats.
    """
    headers = draw(
        st.lists(st.lists(TOKENS, min_size=1, max_size=8), min_size=1, max_size=3)
    )
    prompts = st.builds(
        lambda header, cut, tail: header[:cut] + tail,
        st.sampled_from(headers),
        st.integers(0, 8),
        st.lists(TOKENS, max_size=4),
    )
    ops = st.tuples(
        st.sampled_from(["insert", "insert", "lookup", "peek"]),
        prompts,
        st.none() | st.integers(0, 12),
    )
    budget = draw(st.integers(1, 20))
    slack = draw(st.sampled_from([0, POSITION_BYTES // 2]))
    return budget, budget * POSITION_BYTES + slack, draw(st.lists(ops, max_size=30))


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_matches_per_position_reference(scenario):
    budget, max_bytes, ops = scenario
    cache = PrefixCache(max_bytes=max_bytes)
    reference = ReferenceCache(budget)
    for stamp, (kind, ids, max_len) in enumerate(ops):
        if kind == "insert":
            slab, layers = _spans(len(ids), stamp)
            added = cache.insert(ids, layers)
            assert added == reference.insert(ids, slab)
            slab[...] = np.nan  # the engine reuses its slab; copies must survive
        elif kind == "lookup":
            limit = len(ids) if max_len is None else min(max_len, len(ids))
            depth, layers = cache.lookup(ids, max_len=max_len)
            assert depth == reference.lookup(ids[:limit])
            if depth:
                got = np.stack([np.stack(pair) for pair in layers])
                np.testing.assert_array_equal(got, reference.expected(ids, depth))
            else:
                assert layers is None
        else:
            before = dataclasses.asdict(cache.stats)
            assert cache.peek_length(ids) == reference.match(ids)
            assert dataclasses.asdict(cache.stats) == before
        assert len(cache) == len(reference.columns)
        assert cache.stats.evictions == reference.evictions
        assert cache.stats.bytes == len(reference.columns) * POSITION_BYTES
        assert cache.stats.bytes == _stored_nbytes(cache)
        assert cache.stats.bytes <= max_bytes
    for key in reference.columns:
        assert cache.peek_length(key) == len(key)


class TestShapeErrors:
    def test_token_axis_mismatch_raises_before_any_change(self):
        """Regression: spans narrower than the prompt used to link two
        nodes and then fail with a bare IndexError on the third."""
        cache = PrefixCache()
        _, layers = _spans(2, 0, layers=1)
        with pytest.raises(GenerationError):
            cache.insert([1, 2, 3], layers)
        assert cache.stats == PrefixCacheStats()
        assert len(cache) == 0
        assert cache.peek_length([1, 2, 3]) == 0

    def test_layer_count_mismatch_raises_and_keeps_cache_usable(self):
        """Regression: 1-layer spans under a cached 2-layer prefix were
        stored, and the next lookup crossing both crashed."""
        cache = PrefixCache()
        slab, layers = _spans(2, 0)
        cache.insert([1, 2], layers)
        before = dataclasses.asdict(cache.stats)
        _, narrow = _spans(3, 1, layers=1)
        with pytest.raises(GenerationError):
            cache.insert([1, 2, 3], narrow)
        assert dataclasses.asdict(cache.stats) == before
        assert len(cache) == 2
        depth, spans = cache.lookup([1, 2, 3])
        assert depth == 2 and len(spans) == LAYERS
        np.testing.assert_array_equal(np.stack([np.stack(p) for p in spans]), slab)

    def test_ragged_layers_rejected(self):
        cache = PrefixCache()
        _, layers = _spans(3, 0)
        layers[1] = (layers[1][0][:, :2], layers[1][1][:, :2])
        with pytest.raises(GenerationError):
            cache.insert([1, 2, 3], layers)
        assert len(cache) == 0 and cache.stats.bytes == 0


class TestStorage:
    def test_lookup_spans_cannot_write_into_the_cache(self):
        cache = PrefixCache()
        _, layers = _spans(4, 0)
        cache.insert([1, 2, 3, 4], layers)
        cache.insert([1, 2, 7], _spans(3, 1)[1])  # splits [1, 2, 3, 4] after 2
        for prompt in ([1, 2], [1, 2, 3, 4], [1, 2, 7]):  # one- and two-node paths
            depth, spans = cache.lookup(prompt)
            keys = spans[0][0]
            try:
                keys[...] = -1.0
            except ValueError:
                pass  # a read-only view of the stored run
            _, again = cache.lookup(prompt)
            assert (again[0][0] != -1.0).all(), "a lookup wrote into cache storage"
        _, spans = cache.lookup([1, 2])  # one node: views, no copy
        with pytest.raises(ValueError):
            spans[0][0][0, 0, 0] = 0.0

    def test_stored_runs_do_not_alias_the_callers_slab(self):
        cache = PrefixCache()
        slab, layers = _spans(3, 0)
        expected = slab.copy()
        cache.insert([5, 6, 7], layers)
        slab[...] = 0.0
        _, spans = cache.lookup([5, 6, 7])
        np.testing.assert_array_equal(np.stack([np.stack(p) for p in spans]), expected)

    def test_tail_trim_frees_bytes_and_keeps_the_head(self):
        cache = PrefixCache(max_bytes=5 * POSITION_BYTES)
        cache.insert([1, 2, 3, 4], _spans(4, 0)[1])
        cache.insert([9, 8], _spans(2, 1)[1])  # 6 positions: trim one
        assert cache.stats.evictions == 1
        assert cache.peek_length([1, 2, 3, 4]) == 3
        assert cache.stats.bytes == _stored_nbytes(cache) == 5 * POSITION_BYTES
