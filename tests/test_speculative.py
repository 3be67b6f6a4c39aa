"""Tests for speculative decoding: the draft-and-verify proposer.

The load-bearing property everywhere: greedy speculative output is
**token-identical** to plain decoding — the draft model only changes how
many tokens each target forward advances, never which tokens come out.
Every test here asserts identity against the sequential
:func:`repro.generation.generate` oracle, across drafts of every
quality (always-wrong, perfect, distilled), through
``BatchScheduler(draft_model=...)`` with barriered microbatches and
with continuous batching.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import CompletionClient, ModelHub
from repro.autograd import no_grad
from repro.errors import GenerationError
from repro.generation import GenerationConfig, generate
from repro.models import GPTModel, ModelConfig
from repro.nn import chunk_causal_mask
from repro.serving import (
    BatchRequest,
    BatchScheduler,
    BatchedGenerator,
    PrefixCache,
    distill_draft,
    draft_config,
    engine_serving_stats,
)

MODES = (False, True)  # continuous=False (barriered), continuous=True


@pytest.fixture(scope="module")
def model():
    return GPTModel(ModelConfig.tiny(vocab_size=48), seed=7)


@pytest.fixture(scope="module")
def bad_draft(model):
    """A randomly initialised draft: proposes mostly wrong tokens."""
    return GPTModel(draft_config(model.config, num_layers=1), seed=99)


@pytest.fixture(scope="module")
def ragged_prompts():
    rng = np.random.default_rng(0)
    return [list(map(int, rng.integers(1, 48, size=n))) for n in (3, 9, 1, 12, 6, 4)]


@pytest.fixture(scope="module")
def distilled_draft(model, ragged_prompts):
    return distill_draft(model, ragged_prompts, steps=40, max_new_tokens=10)


def _expected(model, request):
    """The oracle: per-choice sequential decode (choice j uses seed + j)."""
    return [
        generate(
            model,
            request.prompt_ids,
            dataclasses.replace(request.config, seed=request.config.seed + j),
            request.constraint,
        )
        for j in range(request.n)
    ]


def _serve(model, draft, requests, continuous, k=4, **kwargs):
    """Run ``requests`` through a scheduler with ``draft``; (results, stats)."""
    scheduler = BatchScheduler(
        model,
        max_batch_size=4,
        continuous=continuous,
        draft_model=draft,
        speculative_k=k,
        **kwargs,
    )
    tickets = [scheduler.submit(request) for request in requests]
    results = scheduler.run()
    return [results[t] for t in tickets], scheduler.generator.stats


def _assert_identity(model, draft, requests, k=4):
    """Both scheduling modes serve ``requests`` exactly as the oracle."""
    expected = [_expected(model, r) for r in requests]
    stats = []
    for continuous in MODES:
        results, mode_stats = _serve(model, draft, requests, continuous, k=k)
        assert [r.sequences for r in results] == expected, continuous
        stats.append(mode_stats)
    return stats


class EvenOnly:
    """Constraint fixture: only even ids, abort after six tokens."""

    def __init__(self, vocab):
        self.vocab = vocab

    def allowed_tokens(self, generated_ids):
        if len(generated_ids) >= 6:
            return []
        return list(range(0, self.vocab, 2))


class TestRejectedProposals:
    def test_rejected_columns_are_overwritten_not_reused(self, model):
        """Decoding a rejected run, rewinding the row's length, and
        decoding a different token must give the same logits as never
        having decoded the rejected run: the blocked mask hides stale
        columns and the next write overwrites them."""
        prompt = np.array([[5, 9, 2]])
        caches = model.init_cache(batch_size=1, capacity=8)
        fresh = model.init_cache(batch_size=1, capacity=8)

        def step(ids, start, cache):
            cols = np.arange(start, start + ids.shape[1])[None, :]
            kv_len = int(cols.max()) + 1
            blocked = np.arange(kv_len)[None, None, None, :] > cols[:, None, :, None]
            return model.forward_chunk(
                ids, cols, cache, blocked=blocked, write_cols=cols, kv_len=kv_len
            ).data

        with no_grad():
            for cache in (caches, fresh):
                model.forward_chunk(
                    prompt, np.arange(3)[None, :], cache,
                    blocked=chunk_causal_mask(0, 3)[None, None],
                    write_cols=slice(0, 3), kv_len=3,
                )
            step(np.array([[7, 8]]), 3, caches)  # rejected run
            a = step(np.array([[11]]), 3, caches)
            b = step(np.array([[11]]), 3, fresh)
        np.testing.assert_array_equal(a, b)


class TestSpeculativeIdentity:
    """Edge-case sweep, every case asserting token-identity."""

    def test_always_wrong_draft_is_identical(self, model, bad_draft, ragged_prompts):
        config = GenerationConfig(max_new_tokens=10)
        requests = [BatchRequest(p, config) for p in ragged_prompts]
        for stats in _assert_identity(model, bad_draft, requests, k=3):
            # Even a useless draft must not fall back to plain decode.
            assert stats.verify_forwards > 0
            assert stats.draft_tokens > 0

    def test_perfect_draft_accepts_everything(self, model, ragged_prompts):
        config = GenerationConfig(max_new_tokens=10)
        requests = [BatchRequest(p, config) for p in ragged_prompts]
        for stats in _assert_identity(model, model, requests):
            assert stats.acceptance_rate == 1.0

    def test_distilled_draft_is_identical(self, model, distilled_draft, ragged_prompts):
        config = GenerationConfig(max_new_tokens=10)
        requests = [BatchRequest(p, config) for p in ragged_prompts]
        for stats in _assert_identity(model, distilled_draft, requests):
            assert stats.acceptance_rate > 0.0

    def test_stop_token_inside_accepted_run(self, model, ragged_prompts):
        """A stop id hit mid-run must end the sequence exactly where the
        plain decoder ends it, discarding the speculated tail."""
        # Use the model's own greedy stream to find a token that appears
        # mid-sequence, then decode again with it as a stop id.
        config = GenerationConfig(max_new_tokens=10)
        stop = None
        for prompt in ragged_prompts:
            seq = generate(model, prompt, config)
            if len(seq) >= 4:
                stop = seq[2]  # lands inside the first k=4 verify run
                break
        assert stop is not None
        stopped = GenerationConfig(max_new_tokens=10, stop_ids=(stop,))
        requests = [BatchRequest(p, stopped) for p in ragged_prompts]
        _assert_identity(model, model, requests)

    def test_constraints_and_multi_choice(self, model, distilled_draft, ragged_prompts):
        config = GenerationConfig(max_new_tokens=10)
        constraint = EvenOnly(model.config.vocab_size)
        requests = [
            BatchRequest(p, config, constraint=constraint, n=2)
            for p in ragged_prompts
        ]
        _assert_identity(model, distilled_draft, requests, k=3)
        results, _ = _serve(model, distilled_draft, requests, continuous=True, k=3)
        for result in results:
            assert len(result.sequences) == 2
            for seq in result.sequences:
                assert all(t % 2 == 0 for t in seq)

    def test_sampled_requests_fall_back_to_plain_engine(self, model, bad_draft, ragged_prompts):
        config = GenerationConfig(
            max_new_tokens=8, strategy="sample", temperature=0.8, seed=5
        )
        requests = [BatchRequest(p, config) for p in ragged_prompts]
        for stats in _assert_identity(model, bad_draft, requests, k=3):
            assert stats.verify_forwards == 0  # no speculative work

    def test_oversized_prompt_uses_sequential_fallback(self, model, bad_draft):
        rng = np.random.default_rng(4)
        big = list(map(int, rng.integers(1, 48, size=60)))
        config = GenerationConfig(max_new_tokens=20)
        for continuous in MODES:
            (result,), _ = _serve(
                model, bad_draft, [BatchRequest(big, config)], continuous, k=3
            )
            assert result.batched is False
            assert result.sequences == [generate(model, big, config)]

    def test_rows_outside_draft_window_take_plain_steps(self, model, ragged_prompts):
        """A draft with a shorter context window proposes only for the
        rows that fit it; the others decode plainly in the same batch."""
        short = GPTModel(
            dataclasses.replace(draft_config(model.config), max_seq_len=16), seed=5
        )
        config = GenerationConfig(max_new_tokens=6)
        requests = [BatchRequest(p, config) for p in ragged_prompts]
        assert any(len(p) + 6 > 16 for p in ragged_prompts)
        for stats in _assert_identity(model, short, requests):
            assert stats.verify_forwards > 0

    def test_speculative_path_exercised_guard(self, model, distilled_draft, ragged_prompts):
        """Tier-1 guard: the sweep must actually run the speculative
        proposer — draft proposals made, verify forwards issued, and
        fewer target forwards than tokens generated."""
        config = GenerationConfig(max_new_tokens=10)
        requests = [BatchRequest(p, config) for p in ragged_prompts]
        for stats in _assert_identity(model, distilled_draft, requests):
            assert stats.draft_tokens > 0
            assert stats.verify_forwards > 0
            assert stats.draft_accepted_tokens > 0
            # With any acceptance at all, target forwards < tokens.
            assert stats.verify_forwards + stats.decode_steps < stats.generated_tokens
            assert stats.sequential_fallbacks == 0


class TestSpeculativeSingleSequence:
    """One request per run: each prompt alone through the proposer."""

    def _check(self, model, draft, prompts, config, constraint=None, k=4):
        for prompt in prompts:
            _assert_identity(
                model, draft, [BatchRequest(prompt, config, constraint)], k=k
            )

    def test_matches_generate_across_prompts(self, model, distilled_draft, ragged_prompts):
        config = GenerationConfig(max_new_tokens=10)
        self._check(model, distilled_draft, ragged_prompts, config)

    def test_matches_generate_with_bad_draft(self, model, bad_draft, ragged_prompts):
        config = GenerationConfig(max_new_tokens=10)
        self._check(model, bad_draft, ragged_prompts[:3], config, k=3)

    def test_constraint_identity(self, model, bad_draft, ragged_prompts):
        config = GenerationConfig(max_new_tokens=10)
        constraint = EvenOnly(model.config.vocab_size)
        self._check(model, bad_draft, ragged_prompts[:3], config, constraint, k=3)

    def test_sampled_config_delegates(self, model, bad_draft, ragged_prompts):
        config = GenerationConfig(
            max_new_tokens=6, strategy="sample", temperature=0.7, seed=9
        )
        self._check(model, bad_draft, ragged_prompts[:1], config, k=3)

    def test_empty_prompt_rejected(self, model, bad_draft):
        scheduler = BatchScheduler(model, draft_model=bad_draft, continuous=True)
        with pytest.raises(GenerationError):
            scheduler.submit(BatchRequest([]))


class TestSpeculativeValidation:
    def test_nonpositive_k_rejected(self, model, bad_draft):
        with pytest.raises(GenerationError):
            BatchedGenerator(model, draft=bad_draft, k=0)
        with pytest.raises(GenerationError):
            BatchScheduler(model, draft_model=bad_draft, speculative_k=0)

    def test_vocab_mismatch_rejected(self, model):
        other = GPTModel(ModelConfig.tiny(vocab_size=32), seed=1)
        with pytest.raises(GenerationError):
            BatchedGenerator(model, draft=other)

    def test_draft_config_bounds(self, model):
        assert draft_config(model.config, 1).num_layers == 1
        with pytest.raises(GenerationError):
            draft_config(model.config, 0)
        with pytest.raises(GenerationError):
            draft_config(model.config, model.config.num_layers + 1)

    def test_distill_requires_prompts(self, model):
        with pytest.raises(GenerationError):
            distill_draft(model, [])


class TestSpeculativeScheduler:
    def test_scheduler_with_draft_is_identical(self, model, distilled_draft, ragged_prompts):
        config = GenerationConfig(max_new_tokens=10)
        plain = BatchScheduler(model, max_batch_size=4)
        spec = BatchScheduler(
            model, max_batch_size=4, draft_model=distilled_draft, speculative_k=4
        )
        plain_tickets = [plain.submit(BatchRequest(p, config)) for p in ragged_prompts]
        spec_tickets = [spec.submit(BatchRequest(p, config)) for p in ragged_prompts]
        plain_results = plain.run()
        spec_results = spec.run()
        for pt, st in zip(plain_tickets, spec_tickets):
            assert spec_results[st].sequences == plain_results[pt].sequences
        assert spec.stats.verify_forwards > 0
        assert spec.stats.draft_tokens > 0
        assert 0.0 < spec.stats.acceptance_rate <= 1.0

    def test_continuous_with_draft_serves_mixed_queue(
        self, model, distilled_draft, ragged_prompts
    ):
        """Speculation under continuous batching: a ragged queue of
        greedy, sampled, constrained and n > 1 requests, refilled
        mid-decode, comes out token-identical to per-request decode."""
        greedy = GenerationConfig(max_new_tokens=10)
        sampled = GenerationConfig(
            max_new_tokens=8, strategy="sample", temperature=0.8, seed=3
        )
        constraint = EvenOnly(model.config.vocab_size)
        requests = [
            BatchRequest(ragged_prompts[0], greedy),
            BatchRequest(ragged_prompts[1], sampled, n=2),
            BatchRequest(ragged_prompts[2], greedy, constraint=constraint),
            BatchRequest(ragged_prompts[3], greedy, n=3),
            BatchRequest(ragged_prompts[4], sampled),
            BatchRequest(ragged_prompts[5], greedy),
        ]
        results, stats = _serve(model, distilled_draft, requests, continuous=True)
        assert [r.sequences for r in results] == [_expected(model, r) for r in requests]
        assert stats.refills > 0
        assert stats.verify_forwards > 0
        assert stats.draft_accepted_tokens > 0

    def test_prefix_caches_stay_separate(self, model, distilled_draft, ragged_prompts):
        """Target and draft prefix caches must never mix K/V states."""
        config = GenerationConfig(max_new_tokens=6)
        for continuous in MODES:
            target_cache = PrefixCache()
            draft_cache = PrefixCache()
            requests = [BatchRequest(p, config) for p in ragged_prompts]
            results, _ = _serve(
                model, distilled_draft, requests, continuous,
                prefix_cache=target_cache, draft_prefix_cache=draft_cache,
            )
            assert [r.sequences for r in results] == [
                _expected(model, r) for r in requests
            ]
            assert target_cache.stats.inserted_tokens > 0
            assert draft_cache.stats.inserted_tokens > 0


@pytest.fixture(scope="module")
def spec_hub(tiny_gpt, word_tokenizer, corpus):
    hub = ModelHub()
    hub.register("tiny-gpt", tiny_gpt, word_tokenizer)
    sentences = [" ".join(doc.split()[:4]) for doc in corpus[:8]]
    prompts = [
        word_tokenizer.encode(s, add_bos=True).ids for s in sentences
    ]
    draft = distill_draft(tiny_gpt, prompts, steps=40, max_new_tokens=8)
    hub.register("tiny-draft", draft, word_tokenizer)
    return hub, sentences[:6]


class TestSpeculativeClient:
    def test_complete_batch_identity_and_stats(self, spec_hub):
        hub, prompts = spec_hub
        base = CompletionClient(hub).complete_batch(
            "tiny-gpt", prompts, max_tokens=8
        )
        client = CompletionClient(
            hub, speculative_draft="tiny-draft", speculative_k=4
        )
        out = client.complete_batch("tiny-gpt", prompts, max_tokens=8)
        assert [r.text for r in out] == [r.text for r in base]
        stats = engine_serving_stats(client, "tiny-gpt")
        assert stats["verify_forwards"] > 0
        assert stats["draft_tokens"] > 0
        assert 0.0 < stats["acceptance_rate"] <= 1.0

    def test_complete_single_identity(self, spec_hub):
        hub, prompts = spec_hub
        base = CompletionClient(hub).complete("tiny-gpt", prompts[0], max_tokens=8)
        client = CompletionClient(hub, speculative_draft="tiny-draft")
        assert client.complete("tiny-gpt", prompts[0], max_tokens=8).text == base.text

    def test_sampled_batch_still_identical(self, spec_hub):
        hub, prompts = spec_hub
        base = CompletionClient(hub).complete_batch(
            "tiny-gpt", prompts, max_tokens=6, temperature=0.8, seed=3
        )
        client = CompletionClient(hub, speculative_draft="tiny-draft")
        out = client.complete_batch(
            "tiny-gpt", prompts, max_tokens=6, temperature=0.8, seed=3
        )
        assert [r.text for r in out] == [r.text for r in base]
