"""Tests for decoding strategies and constraints."""

import numpy as np
import pytest

from repro.errors import GenerationError, ModelError, ShapeError
from repro.generation import GenerationConfig, generate, generate_text
from repro.models import GPTModel, ModelConfig


class FixedConstraint:
    """Only permits tokens from a fixed allowed set."""

    def __init__(self, allowed):
        self.allowed = list(allowed)

    def allowed_tokens(self, generated_ids):
        return self.allowed


class ScriptedConstraint:
    """Forces an exact token sequence, then stops."""

    def __init__(self, script):
        self.script = list(script)

    def allowed_tokens(self, generated_ids):
        if len(generated_ids) >= len(self.script):
            return []
        return [self.script[len(generated_ids)]]


@pytest.fixture(scope="module")
def model():
    return GPTModel(ModelConfig.tiny(vocab_size=32), seed=11)


class TestGenerationConfig:
    def test_bad_strategy(self):
        with pytest.raises(GenerationError):
            GenerationConfig(strategy="mcts")

    def test_bad_temperature(self):
        with pytest.raises(GenerationError):
            GenerationConfig(temperature=0.0)

    def test_bad_top_p(self):
        with pytest.raises(GenerationError):
            GenerationConfig(top_p=0.0)

    def test_bad_max_tokens(self):
        with pytest.raises(GenerationError):
            GenerationConfig(max_new_tokens=0)


class TestGenerate:
    def test_respects_token_budget(self, model):
        out = generate(model, [1, 2, 3], GenerationConfig(max_new_tokens=5))
        assert len(out) <= 5

    def test_greedy_is_deterministic(self, model):
        a = generate(model, [1, 2], GenerationConfig(max_new_tokens=8))
        b = generate(model, [1, 2], GenerationConfig(max_new_tokens=8))
        assert a == b

    def test_sampling_seed_determinism(self, model):
        cfg = GenerationConfig(max_new_tokens=8, strategy="sample", seed=7)
        a = generate(model, [1, 2], cfg)
        b = generate(model, [1, 2], cfg)
        assert a == b

    def test_different_seeds_can_differ(self, model):
        outs = {
            tuple(
                generate(
                    model,
                    [1, 2],
                    GenerationConfig(
                        max_new_tokens=8, strategy="sample", temperature=2.0, seed=s
                    ),
                )
            )
            for s in range(5)
        }
        assert len(outs) > 1

    def test_stop_token_halts(self, model):
        # Find greedy's first choice, then make it a stop token.
        first = generate(model, [1, 2], GenerationConfig(max_new_tokens=1))[0]
        out = generate(
            model, [1, 2], GenerationConfig(max_new_tokens=8, stop_ids=(first,))
        )
        assert out == []

    def test_empty_prompt_raises(self, model):
        with pytest.raises(GenerationError):
            generate(model, [])

    def test_constraint_restricts_tokens(self, model):
        allowed = [4, 5, 6]
        out = generate(
            model, [1], GenerationConfig(max_new_tokens=10),
            constraint=FixedConstraint(allowed),
        )
        assert out and set(out) <= set(allowed)

    def test_scripted_constraint_forces_sequence(self, model):
        script = [9, 8, 7]
        out = generate(
            model, [1], GenerationConfig(max_new_tokens=10),
            constraint=ScriptedConstraint(script),
        )
        assert out == script

    def test_constraint_applies_under_sampling(self, model):
        out = generate(
            model, [1],
            GenerationConfig(max_new_tokens=10, strategy="sample", temperature=3.0),
            constraint=FixedConstraint([2, 3]),
        )
        assert set(out) <= {2, 3}

    def test_top_k_limits_support(self, model):
        # With top_k=1, sampling degenerates to greedy.
        greedy = generate(model, [1, 2], GenerationConfig(max_new_tokens=6))
        topk = generate(
            model, [1, 2],
            GenerationConfig(max_new_tokens=6, strategy="sample", top_k=1, seed=3),
        )
        assert greedy == topk

    def test_context_window_slides(self):
        small = GPTModel(
            ModelConfig(vocab_size=16, max_seq_len=8, dim=16, num_layers=1,
                        num_heads=2, ff_dim=32),
            seed=0,
        )
        out = generate(small, [1] * 8, GenerationConfig(max_new_tokens=12))
        assert len(out) <= 12  # must not crash past the window


class TestGenerateText:
    def test_text_in_text_out(self, model_and_tokenizer=None):
        pass  # covered by integration tests with trained models


class TestCachedDecoding:
    def test_cached_greedy_matches_uncached(self, model):
        config = GenerationConfig(max_new_tokens=10)
        plain = generate(model, [1, 2, 3], config, use_cache=False)
        cached = generate(model, [1, 2, 3], config, use_cache=True)
        assert plain == cached

    def test_cached_sampling_matches_uncached(self, model):
        config = GenerationConfig(max_new_tokens=10, strategy="sample", seed=5)
        plain = generate(model, [1, 2], config, use_cache=False)
        cached = generate(model, [1, 2], config, use_cache=True)
        assert plain == cached

    def test_cached_respects_constraint(self, model):
        out = generate(
            model, [1], GenerationConfig(max_new_tokens=6),
            constraint=FixedConstraint([4, 5]), use_cache=True,
        )
        assert out and set(out) <= {4, 5}

    def test_full_length_generation_runs_no_forward_after_the_last_token(
        self, model, monkeypatch
    ):
        calls = []
        encode_chunk = model.encode_chunk

        def counting(*args, **kwargs):
            calls.append(1)
            return encode_chunk(*args, **kwargs)

        monkeypatch.setattr(model, "encode_chunk", counting)
        out = generate(model, [1, 2, 3], GenerationConfig(max_new_tokens=6))
        assert len(out) == 6
        # One prefill, then one step for every token but the last.
        assert len(calls) == 6

    def test_cache_falls_back_when_context_exceeded(self):
        small = GPTModel(
            ModelConfig(vocab_size=16, max_seq_len=8, dim=16, num_layers=1,
                        num_heads=2, ff_dim=32),
            seed=0,
        )
        # prompt 6 + 12 new > 8: must not crash (falls back to windowing).
        out = generate(
            small, [1] * 6, GenerationConfig(max_new_tokens=12), use_cache=True
        )
        assert len(out) <= 12

    def test_incremental_logits_match_full_forward(self, model):
        from repro.autograd import no_grad

        ids = [1, 2, 3, 4, 5]
        with no_grad():
            full = model(np.array([ids]))
        caches = model.init_cache(1, len(ids))
        for position, token in enumerate(ids):
            step = _decode_step(model, token, position, caches)
        np.testing.assert_allclose(step[0, 0], full.data[0, -1], atol=1e-9)

    def test_incremental_bad_shape_raises(self, model):
        with pytest.raises(ModelError):
            model.encode_chunk(
                np.array([1, 2]), np.arange(2), model.init_cache(1, 2),
                write_cols=slice(0, 2), kv_len=2,
            )

    def test_incremental_position_overflow_raises(self, model):
        with pytest.raises(ModelError):
            _decode_step(model, 1, model.config.max_seq_len, model.init_cache(1, 1))


class TestCacheBounds:
    """A mis-sized cache or write column raises instead of corrupting output."""

    @staticmethod
    def _encode(model, caches, position, write_cols, kv_len):
        return model.encode_chunk(
            np.array([[1]]), np.array([[position]]), caches,
            write_cols=write_cols, kv_len=kv_len,
        )

    def test_kv_len_past_capacity_raises(self, model):
        # numpy would clip the slice, drop the new K/V and attend 4 columns.
        caches = model.init_cache(1, 4)
        with pytest.raises(ModelError, match="capacity"):
            self._encode(model, caches, 4, slice(4, 5), 5)
        with pytest.raises(ModelError, match="capacity"):
            self._encode(model, caches, 4, np.array([4]), 5)

    def test_write_column_outside_attended_columns_raises(self, model):
        caches = model.init_cache(1, 8)
        with pytest.raises(ModelError, match="attended"):
            self._encode(model, caches, 3, slice(3, 4), 3)
        with pytest.raises(ModelError, match="attended"):
            self._encode(model, caches, 3, np.array([5]), 3)
        with pytest.raises(ModelError, match="attended"):
            self._encode(model, caches, 3, np.array([-1]), 3)
        # Rejected before any layer writes a column.
        assert not any(cache["k"].any() for cache in caches)

    def test_token_id_outside_vocabulary_raises_before_any_write(self, model):
        caches = model.init_cache(2, 4)
        for bad in (model.config.vocab_size, -1):
            with pytest.raises(ShapeError, match="out of range"):
                model.encode_chunk(
                    np.array([[1, 2], [3, bad]]), np.arange(2)[None, :], caches,
                    write_cols=slice(0, 2), kv_len=2,
                )
        assert not any(slab.any() for cache in caches for slab in cache.values())

    def test_slice_width_must_match_chunk(self, model):
        with pytest.raises(ModelError, match="chunk"):
            model.encode_chunk(
                np.array([[1, 2]]), np.arange(2)[None, :], model.init_cache(1, 4),
                write_cols=slice(0, 3), kv_len=3,
            )

    def test_init_cache_rejects_non_positive_sizes(self, model):
        for batch_size, capacity in ((0, 4), (1, 0), (-1, 4)):
            with pytest.raises(ModelError):
                model.init_cache(batch_size, capacity)


def _decode_step(model, token, position, caches):
    """One single-row cached decode step at ``position``."""
    from repro.autograd import no_grad

    with no_grad():
        return model.forward_chunk(
            np.array([[token]]), np.array([[position]]), caches,
            write_cols=slice(position, position + 1), kv_len=position + 1,
        )


class TestTrainedModelGeneration:
    def test_trained_model_continues_plausibly(self, tiny_gpt, word_tokenizer):
        text = generate_text(
            tiny_gpt, word_tokenizer, "the database",
            GenerationConfig(max_new_tokens=6),
        )
        # The toy grammar is SVO: a verb should follow a subject.
        verbs = {"stores", "scans", "joins", "returns", "updates"}
        assert any(v in text.split() for v in verbs)


class TestDecodingEdgeCases:
    """Edge cases of the token-filtering strategies themselves."""

    def _support(self, logits, config, draws=300):
        from repro.generation.decoding import _pick_token
        from repro.utils.rng import SeededRNG

        rng = SeededRNG(0)
        return {_pick_token(np.array(logits, dtype=float), config, rng)
                for _ in range(draws)}

    def test_top_k_keeps_exactly_k_under_ties(self):
        # Three tokens tie for the top; a cutoff comparison would keep
        # all three. Exactly k must survive, ties broken by lowest id.
        config = GenerationConfig(
            strategy="sample", top_k=2, temperature=1.0, max_new_tokens=1
        )
        support = self._support([1.0, 1.0, 1.0, 0.0], config)
        assert support == {0, 1}

    def test_top_k_all_tied_vocabulary(self):
        config = GenerationConfig(
            strategy="sample", top_k=3, temperature=1.0, max_new_tokens=1
        )
        support = self._support([2.0] * 6, config)
        assert support == {0, 1, 2}

    def test_top_k_at_least_vocab_is_no_filter(self):
        config = GenerationConfig(
            strategy="sample", top_k=10, temperature=2.0, max_new_tokens=1
        )
        support = self._support([0.1, 0.0, -0.1], config, draws=600)
        assert support == {0, 1, 2}

    def test_top_p_exact_cumulative_boundary(self):
        # probs == [0.5, 0.3, 0.2]; top_p = 0.5 must keep the *smallest*
        # set reaching the threshold — only token 0.
        logits = list(np.log([0.5, 0.3, 0.2]))
        config = GenerationConfig(
            strategy="sample", top_p=0.5, temperature=1.0, max_new_tokens=1
        )
        assert self._support(logits, config) == {0}

    def test_top_p_just_past_boundary_keeps_two(self):
        logits = list(np.log([0.5, 0.3, 0.2]))
        config = GenerationConfig(
            strategy="sample", top_p=0.51, temperature=1.0, max_new_tokens=1
        )
        assert self._support(logits, config) == {0, 1}

    def test_top_p_float_accumulation_error_does_not_widen_nucleus(self):
        # 0.3 + 0.3 + 0.3 accumulates to 0.8999999999999999 in float64.
        # Without the comparison tolerance the cumsum "misses" top_p=0.9
        # and a fourth token leaks into the nucleus; the boundary rule
        # says three tokens exactly reach it.
        logits = list(np.log([0.3, 0.3, 0.3, 0.1]))
        config = GenerationConfig(
            strategy="sample", top_p=0.9, temperature=1.0, max_new_tokens=1
        )
        assert self._support(logits, config) == {0, 1, 2}

    def test_top_p_boundary_tolerance_across_adversarial_vectors(self):
        # Each case lands a cumulative sum a few ulps *below* the exact
        # threshold; the keep-count must match exact rational arithmetic.
        cases = [
            ([0.35, 0.25, 0.2, 0.2], 0.6, {0, 1}),
            ([0.3, 0.3, 0.2, 0.2], 0.6, {0, 1}),
            ([0.1] * 7 + [0.3], 0.3, {7}),
        ]
        for probs, top_p, expected in cases:
            config = GenerationConfig(
                strategy="sample", top_p=top_p, temperature=1.0,
                max_new_tokens=1,
            )
            support = self._support(list(np.log(probs)), config, draws=400)
            assert support == expected, (probs, top_p, support)

    def test_top_p_tolerance_does_not_shrink_clear_margins(self):
        # A top_p sitting comfortably between two cumulative sums is
        # unaffected by the tolerance: it is orders of magnitude smaller
        # than any meaningful threshold gap.
        logits = list(np.log([0.5, 0.3, 0.2]))
        config = GenerationConfig(
            strategy="sample", top_p=0.79, temperature=1.0, max_new_tokens=1
        )
        assert self._support(logits, config) == {0, 1}

    def test_cached_constraint_masks_under_sampling(self, model):
        config = GenerationConfig(
            max_new_tokens=8, strategy="sample", temperature=2.5, seed=2
        )
        out = generate(
            model, [1], config, constraint=FixedConstraint([3, 7]), use_cache=True
        )
        assert out and set(out) <= {3, 7}
        assert out == generate(
            model, [1], config, constraint=FixedConstraint([3, 7]), use_cache=False
        )

    def test_incremental_records_last_attention(self, model):
        attn = model.stack.blocks[0].attn
        caches = model.init_cache(1, 2)
        _decode_step(model, 1, 0, caches)
        first = attn.last_attention
        assert first is not None and first.shape[-1] == 1
        _decode_step(model, 2, 1, caches)
        second = attn.last_attention
        # The cached step must refresh the recorded weights, never leave
        # stale introspection from an earlier call.
        assert second is not None and second.shape[-1] == 2

    def test_generate_defaults_to_cache(self, model):
        # The cached and recompute paths must agree on default settings.
        config = GenerationConfig(max_new_tokens=12, stop_ids=())
        assert generate(model, [2, 4, 6], config) == generate(
            model, [2, 4, 6], config, use_cache=False
        )
