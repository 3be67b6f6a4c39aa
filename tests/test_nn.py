"""Tests for the neural-network layer library."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.errors import ModelError
from repro.nn import (
    Embedding,
    LayerNorm,
    Linear,
    Module,
    MultiHeadAttention,
    TransformerBlock,
    TransformerStack,
    causal_mask,
    chunk_causal_mask,
    padding_mask,
)
from repro.utils.rng import SeededRNG


@pytest.fixture
def rng():
    return SeededRNG(0)


class TestModule:
    def test_parameter_registration(self, rng):
        layer = Linear(4, 3, rng)
        names = [n for n, _ in layer.named_parameters()]
        assert set(names) == {"weight", "bias"}

    def test_nested_registration(self, rng):
        block = TransformerBlock(8, 2, 16, rng)
        names = [n for n, _ in block.named_parameters()]
        assert any(n.startswith("attn.qkv.") for n in names)
        assert any(n.startswith("ff.up.") for n in names)

    def test_num_parameters(self, rng):
        layer = Linear(4, 3, rng)
        assert layer.num_parameters() == 4 * 3 + 3

    def test_state_dict_roundtrip(self, rng):
        a = Linear(4, 3, rng.spawn("a"))
        b = Linear(4, 3, rng.spawn("b"))
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_state_dict_mismatch_raises(self, rng):
        a = Linear(4, 3, rng)
        with pytest.raises(ModelError):
            a.load_state_dict({"weight": np.zeros((4, 3))})  # missing bias

    def test_state_dict_shape_mismatch_raises(self, rng):
        a = Linear(4, 3, rng)
        state = a.state_dict()
        state["weight"] = np.zeros((2, 2))
        with pytest.raises(ModelError):
            a.load_state_dict(state)

    def test_zero_grad(self, rng):
        layer = Linear(2, 2, rng)
        out = layer(Tensor(np.ones((1, 2))))
        out.sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestLayers:
    def test_linear_shapes(self, rng):
        layer = Linear(5, 7, rng)
        out = layer(Tensor(np.zeros((2, 3, 5))))
        assert out.shape == (2, 3, 7)

    def test_linear_no_bias(self, rng):
        layer = Linear(5, 7, rng, bias=False)
        assert layer.bias is None
        assert layer.num_parameters() == 35

    def test_embedding_shapes(self, rng):
        emb = Embedding(10, 4, rng)
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)

    def test_embedding_invalid_size(self, rng):
        with pytest.raises(ModelError):
            Embedding(0, 4, rng)

    def test_layer_norm_normalizes(self):
        ln = LayerNorm(6)
        x = Tensor(np.random.default_rng(0).normal(3.0, 2.0, (4, 6)))
        out = ln(x)
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-9)


class TestMasks:
    def test_causal_mask_blocks_future(self):
        mask = causal_mask(4)
        assert not mask[2, 1]  # past allowed
        assert mask[1, 2]      # future blocked
        assert not mask.diagonal().any()

    def test_padding_mask_shape(self):
        attn = np.array([[1, 1, 0], [1, 0, 0]])
        mask = padding_mask(attn)
        assert mask.shape == (2, 1, 1, 3)
        assert mask[0, 0, 0].tolist() == [False, False, True]

    def test_cached_mask_matches_fresh_triu_across_sizes(self):
        # Shrinking, growing, and regrowing must all slice correctly
        # out of the shared cached triangle.
        for seq_len in (5, 3, 70, 12, 200, 1):
            mask = causal_mask(seq_len)
            assert mask.shape == (seq_len, seq_len)
            np.testing.assert_array_equal(
                mask, np.triu(np.ones((seq_len, seq_len), dtype=bool), k=1)
            )

    def test_cached_mask_is_read_only_view(self):
        mask = causal_mask(6)
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0, 0] = True
        # Repeated same-size calls share the cache's buffer.
        assert causal_mask(6).base is causal_mask(6).base

    def test_chunk_causal_mask_covers_absolute_columns(self):
        chunk = chunk_causal_mask(3, 7)
        assert chunk.shape == (4, 7)
        np.testing.assert_array_equal(chunk, causal_mask(7)[3:7])
        # Query at absolute position 3 sees keys 0..3, not 4..6.
        assert chunk[0].tolist() == [False] * 4 + [True] * 3
        assert not chunk[-1].any()


class TestAttention:
    def test_output_shape(self, rng):
        attn = MultiHeadAttention(16, 4, rng)
        out = attn(Tensor(np.random.default_rng(0).normal(size=(2, 5, 16))))
        assert out.shape == (2, 5, 16)

    def test_dim_head_divisibility(self, rng):
        with pytest.raises(ModelError):
            MultiHeadAttention(10, 3, rng)

    def test_attention_rows_sum_to_one(self, rng):
        attn = MultiHeadAttention(8, 2, rng)
        attn(Tensor(np.random.default_rng(1).normal(size=(1, 4, 8))))
        weights = attn.last_attention
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-9)

    def test_causal_attention_is_lower_triangular(self, rng):
        attn = MultiHeadAttention(8, 2, rng, causal=True)
        attn(Tensor(np.random.default_rng(2).normal(size=(1, 5, 8))))
        weights = attn.last_attention[0, 0]
        upper = np.triu(weights, k=1)
        np.testing.assert_allclose(upper, 0.0, atol=1e-9)

    def test_padding_is_not_attended(self, rng):
        attn = MultiHeadAttention(8, 2, rng)
        mask = np.array([[1, 1, 1, 0, 0]])
        attn(Tensor(np.random.default_rng(3).normal(size=(1, 5, 8))), mask)
        weights = attn.last_attention[0, 0]
        np.testing.assert_allclose(weights[:, 3:], 0.0, atol=1e-9)

    def test_causal_output_prefix_invariance(self, rng):
        """Causal attention output at position t must not change when
        future tokens change — the defining property of a decoder."""
        attn = MultiHeadAttention(8, 2, rng, causal=True)
        gen = np.random.default_rng(4)
        x = gen.normal(size=(1, 6, 8))
        y = x.copy()
        y[0, 4:] = gen.normal(size=(2, 8))
        out_x = attn(Tensor(x)).data
        out_y = attn(Tensor(y)).data
        np.testing.assert_allclose(out_x[0, :4], out_y[0, :4], atol=1e-10)

    def test_gradients_flow_through_attention(self, rng):
        attn = MultiHeadAttention(8, 2, rng)
        x = Tensor(np.random.default_rng(5).normal(size=(1, 3, 8)), requires_grad=True)
        attn(x).sum().backward()
        assert x.grad is not None
        assert attn.qkv.weight.grad is not None


class TestTransformer:
    def test_block_preserves_shape(self, rng):
        block = TransformerBlock(16, 4, 32, rng)
        out = block(Tensor(np.zeros((2, 7, 16))))
        assert out.shape == (2, 7, 16)

    def test_stack_layers_registered(self, rng):
        stack = TransformerStack(3, 8, 2, 16, rng)
        block_params = {n.split(".")[0] for n, _ in stack.named_parameters()}
        assert {"block0", "block1", "block2", "final_norm"} <= block_params

    def test_stack_forward_and_backward(self, rng):
        stack = TransformerStack(2, 8, 2, 16, rng)
        x = Tensor(np.random.default_rng(6).normal(size=(2, 4, 8)), requires_grad=True)
        stack(x).sum().backward()
        assert x.grad is not None
        for param in stack.parameters():
            assert param.grad is not None, "every parameter should receive gradient"

    def test_training_graph_size_per_layer(self):
        """One fine-tune step records a fixed, small graph per block.

        Per block: two LayerNorm and four Linear nodes with their 12
        parameter leaves (18); one attention node; GELU; two residual
        adds. A LayerNorm, Linear or attention composed from primitives
        again shows up here as extra nodes.
        """
        from repro.autograd import cross_entropy
        from repro.autograd.tensor import _topological_order
        from repro.models import GPTModel, ModelConfig

        ids = np.arange(1, 19).reshape(2, 9) % 40
        counts = []
        for layers in (2, 4):
            config = ModelConfig(
                vocab_size=40, max_seq_len=16, dim=48, num_layers=layers,
                num_heads=3, ff_dim=192, causal=True,
            )
            logits = GPTModel(config, seed=0)(ids[:, :-1])
            loss = cross_entropy(logits.reshape(-1, 40), ids[:, 1:].reshape(-1))
            counts.append(len(_topological_order(loss)))
        assert counts[1] - counts[0] == 2 * 22
