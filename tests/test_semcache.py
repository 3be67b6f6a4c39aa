"""Tests for the semantic completion cache and its client wiring.

The contract under test: hits are byte-identical to re-decoding (and
skip the engine entirely), a near-duplicate prompt is a miss, eviction
is deterministic under a seeded workload, and a model-identity change
flushes the stale engine's entries.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CompletionClient, ModelHub
from repro.errors import GenerationError
from repro.generation import GenerationConfig
from repro.models import GPTModel, ModelConfig
from repro.serving import (
    BatchRequest,
    SemanticCache,
    completion_request_key,
    engine_serving_stats,
)


@pytest.fixture(scope="module")
def hub(tiny_gpt_module, word_tokenizer_module):
    hub = ModelHub()
    hub.register("tiny-gpt", tiny_gpt_module, word_tokenizer_module)
    return hub


@pytest.fixture(scope="module")
def tiny_gpt_module(tiny_gpt):
    return tiny_gpt


@pytest.fixture(scope="module")
def word_tokenizer_module(word_tokenizer):
    return word_tokenizer


def make_client(hub, **kwargs):
    kwargs.setdefault("semantic_cache_bytes", 64 * 1024)
    return CompletionClient(hub, **kwargs)


class TestRequestKey:
    def test_covers_decode_params(self):
        config = GenerationConfig(max_new_tokens=4)
        key_a = completion_request_key(BatchRequest([1, 2, 3], config))
        key_b = completion_request_key(BatchRequest([1, 2, 3], config))
        assert key_a == key_b
        other = completion_request_key(
            BatchRequest([1, 2, 3], GenerationConfig(max_new_tokens=5))
        )
        assert key_a != other

    def test_constrained_requests_are_uncacheable(self):
        request = BatchRequest([1, 2], GenerationConfig(), constraint=object())
        assert completion_request_key(request) is None


class TestSemanticCacheUnit:
    def test_exact_hit_round_trip(self):
        cache = SemanticCache(max_bytes=4096)
        cache.insert("k", "value", prompt_tokens=3, completion_tokens=5)
        hit = cache.lookup("k")
        assert hit is not None
        assert hit.value == "value"
        assert cache.stats.hits == 1
        assert cache.stats.skipped_prompt_tokens == 3
        assert cache.stats.skipped_completion_tokens == 5
        assert cache.lookup("missing") is None
        assert (cache.stats.lookups, cache.stats.hits) == (2, 1)

    def test_lru_eviction_is_deterministic(self):
        def run_once():
            cache = SemanticCache(max_bytes=1024)
            rng = np.random.default_rng(11)
            for step in range(60):
                key = int(rng.integers(0, 30))
                if cache.lookup(key) is None:
                    cache.insert(key, "x" * 64)
            return cache.keys(), cache.stats.evictions

        first_keys, first_evictions = run_once()
        second_keys, second_evictions = run_once()
        assert first_evictions > 0
        assert first_keys == second_keys
        assert first_evictions == second_evictions

    def test_lru_evicts_least_recently_used(self):
        # 144 bytes an entry: the budget holds two entries, not three.
        cache = SemanticCache(max_bytes=400)
        cache.insert("a", "x" * 80)
        cache.insert("b", "x" * 80)
        assert cache.lookup("a") is not None  # refresh a; b is now LRU
        cache.insert("c", "x" * 80)
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_entry_charges_value_plus_overhead_once(self):
        cache = SemanticCache(max_bytes=4096)
        cache.insert("k", "x" * 20)
        assert cache.stats.bytes == 20 + 64

    def test_oversized_value_rejected_up_front(self):
        cache = SemanticCache(max_bytes=256)
        cache.insert("small", "x" * 32)
        assert not cache.insert("huge", "x" * 10_000)
        assert cache.stats.oversized == 1
        assert "small" in cache  # nothing was evicted for the reject

    def test_invalidate_flushes_one_group_only(self):
        cache = SemanticCache(max_bytes=4096)
        cache.insert("a", "v", group="engine-a")
        cache.insert("b", "v", group="engine-b")
        assert cache.invalidate("engine-a") == 1
        assert "a" not in cache and "b" in cache
        assert cache.stats.bytes > 0

    def test_reinsert_replaces(self):
        cache = SemanticCache(max_bytes=4096)
        cache.insert("k", "old")
        cache.insert("k", "new")
        assert len(cache) == 1
        assert cache.lookup("k").value == "new"

    def test_validation(self):
        with pytest.raises(GenerationError):
            SemanticCache(max_bytes=0)


class TestClientCacheWiring:
    def test_exact_repeat_is_byte_identical_and_skips_engine(self, hub):
        cached = make_client(hub)
        uncached = CompletionClient(hub)
        first = cached.complete("tiny-gpt", "the database", max_tokens=6)
        second = cached.complete("tiny-gpt", "the database", max_tokens=6)
        baseline = uncached.complete("tiny-gpt", "the database", max_tokens=6)
        assert second is first  # served straight from the cache
        assert first.text == baseline.text
        assert first.usage == baseline.usage
        stats = cached.engine_stats("tiny-gpt")
        assert stats.requests == 1  # the repeat never reached the engine
        assert stats.cache_exact_hits == 1
        assert stats.cache_lookups == 2
        assert stats.cache_skipped_completion_tokens == first.usage.completion_tokens

    def test_different_params_miss(self, hub):
        client = make_client(hub)
        client.complete("tiny-gpt", "the table", max_tokens=4)
        client.complete("tiny-gpt", "the table", max_tokens=5)
        assert client.engine_stats("tiny-gpt").cache_exact_hits == 0
        assert client.engine_stats("tiny-gpt").requests == 2

    def test_model_identity_invalidation_flushes(self, hub, word_tokenizer):
        client = make_client(hub)
        original = hub.get("tiny-gpt").model
        client.complete("tiny-gpt", "the index", max_tokens=4)
        assert len(client.semantic_cache) == 1
        replacement = GPTModel(
            ModelConfig.tiny(vocab_size=word_tokenizer.vocab_size, causal=True),
            seed=99,
        )
        hub.register("tiny-gpt", replacement, word_tokenizer)
        try:
            client.complete("tiny-gpt", "the index", max_tokens=4)
            stats = client.engine_stats("tiny-gpt")
            assert stats.cache_exact_hits == 0
            assert stats.requests == 2
            assert client.semantic_cache.stats.invalidations == 1
        finally:
            hub.register("tiny-gpt", original, word_tokenizer)

    def test_batch_serves_repeats_and_in_batch_duplicates(self, hub):
        client = make_client(hub)
        warm = client.complete_batch(
            "tiny-gpt", ["the query", "the model"], max_tokens=5
        )
        mixed = client.complete_batch(
            "tiny-gpt",
            ["the query", "the rows", "the rows", "the model"],
            max_tokens=5,
        )
        assert mixed[0] is warm[0]
        assert mixed[3] is warm[1]
        # in-batch duplicate decodes once, both copies share the result
        assert mixed[2] is mixed[1]
        stats = client.engine_stats("tiny-gpt")
        assert stats.cache_exact_hits == 3
        assert stats.requests == 3  # 2 warmup + 1 fresh prompt

    def test_batch_matches_single_path_responses(self, hub):
        client = make_client(hub)
        single = client.complete("tiny-gpt", "sorted results", max_tokens=5)
        [batched] = client.complete_batch(
            "tiny-gpt", ["sorted results"], max_tokens=5
        )
        assert batched is single  # same key: the batch path hit the cache

    def test_constrained_requests_bypass_cache(self, hub):
        class Unrestricted:
            def allowed_tokens(self, generated_ids):
                return None

        client = make_client(hub)
        for _ in range(2):
            client.complete(
                "tiny-gpt",
                "the database",
                max_tokens=4,
                constraint=Unrestricted(),
            )
        assert client.engine_stats("tiny-gpt").cache_lookups == 0
        assert len(client.semantic_cache) == 0

    def test_serving_stats_expose_cache_counters(self, hub):
        client = make_client(hub)
        client.complete("tiny-gpt", "cached empty records", max_tokens=4)
        client.complete("tiny-gpt", "cached empty records", max_tokens=4)
        stats = engine_serving_stats(client, "tiny-gpt")
        assert stats["cache_lookups"] == 2.0
        assert stats["cache_exact_hits"] == 1.0
        assert stats["cache_hit_rate"] == 0.5
        assert stats["cache_skipped_completion_tokens"] >= 0.0

    def test_cache_disabled_by_default(self, hub):
        client = CompletionClient(hub)
        assert client.semantic_cache is None
        client.complete("tiny-gpt", "the model", max_tokens=4)
        assert client.engine_stats("tiny-gpt").cache_lookups == 0

    def test_serving_stats_key_set(self, hub):
        client = make_client(hub)
        client.complete("tiny-gpt", "the table joins rows", max_tokens=4)
        stats = engine_serving_stats(client, "tiny-gpt")
        assert set(stats) == {
            "requests",
            "prompt_tokens",
            "completion_tokens",
            "prefix_hits",
            "prefix_reused_tokens",
            "cache_lookups",
            "cache_exact_hits",
            "cache_hit_rate",
            "cache_skipped_prompt_tokens",
            "cache_skipped_completion_tokens",
        }
        assert all(type(value) is float for value in stats.values())
        engine = client.engine_stats("tiny-gpt")
        assert stats["requests"] == engine.requests == 1

    def test_entry_charges_value_estimate_plus_overhead(self, hub):
        # An entry is charged for its text plus one fixed overhead, with
        # no prompt embedding beside it.
        client = make_client(hub)
        response = client.complete("tiny-gpt", "the index scans", max_tokens=5)
        assert client.semantic_cache.stats.bytes == len(response.text) + 64


#: near-duplicate prompts behind a shared header, as in a few-shot
#: sweep: one slot each for a literal, a column and an operator, filled
#: from the test corpus vocabulary so that each slot changes the tokens
#: the model sees
HEADER = "the database stores sorted rows . the table returns cached records ."
LITERALS = ("large", "small", "sorted")
COLUMNS = ("rows", "records", "tuples")
OPERATORS = ("scans", "joins", "returns")
NEAR_DUPLICATES = [
    f"{HEADER} the query {op} {literal} {column}"
    for literal in LITERALS
    for column in COLUMNS
    for op in OPERATORS
]


class TestNearDuplicatePrompts:
    """Prompts one slot apart must never share a cached completion."""

    @pytest.fixture(scope="class")
    def slot_hub(self, word_tokenizer_module):
        # An untrained, seeded model: unlike the briefly trained
        # fixture, its greedy output depends on every slot.
        model = GPTModel(
            ModelConfig.tiny(vocab_size=word_tokenizer_module.vocab_size, causal=True),
            seed=1,
        )
        hub = ModelHub()
        hub.register("slot-gpt", model, word_tokenizer_module)
        return hub

    @pytest.fixture(scope="class")
    def uncached(self, slot_hub):
        responses = CompletionClient(slot_hub).complete_batch(
            "slot-gpt", NEAR_DUPLICATES, max_tokens=5
        )
        return dict(zip(NEAR_DUPLICATES, responses))

    def test_slots_change_the_response(self, uncached):
        # Guards the property below: were every near-duplicate answered
        # alike, serving a neighbour's completion would go unseen.
        assert len({r.text for r in uncached.values()}) > len(NEAR_DUPLICATES) // 3

    @settings(max_examples=40, deadline=None)
    @given(
        calls=st.lists(
            st.lists(
                st.integers(0, len(NEAR_DUPLICATES) - 1), min_size=1, max_size=4
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_cached_client_returns_uncached_response(self, slot_hub, uncached, calls):
        client = make_client(slot_hub)
        for call in calls:
            prompts = [NEAR_DUPLICATES[i] for i in call]
            responses = client.complete_batch("slot-gpt", prompts, max_tokens=5)
            for prompt, response in zip(prompts, responses):
                assert response.text == uncached[prompt].text
                assert response.usage == uncached[prompt].usage
        sent = [i for call in calls for i in call]
        stats = client.engine_stats("slot-gpt")
        assert stats.requests == len(set(sent))
        assert stats.cache_exact_hits == len(sent) - len(set(sent))
