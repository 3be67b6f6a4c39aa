"""Tests for the autograd engine, including finite-difference checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import (
    Tensor,
    attention,
    concat,
    cross_entropy,
    embedding,
    gelu,
    layer_norm,
    linear,
    log_softmax,
    no_grad,
    relu,
    sigmoid,
    tanh,
)
from repro.autograd.functional import (
    _SQRT_2_OVER_PI,
    NEG_INF,
    _gelu_parts,
    attention_parts,
    layer_norm_parts,
)
from repro.errors import ShapeError
from repro.training.optim import SGD


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``fn`` w.r.t. array ``x``."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(build_loss, shape, seed=0, tol=1e-5):
    """Compare autograd gradient against finite differences."""
    check_gradient_at(build_loss, np.random.default_rng(seed).normal(size=shape), tol)


def check_gradient_at(build_loss, x: np.ndarray, tol=1e-5):
    """:func:`check_gradient` at a given input ``x``."""
    t = Tensor(x.copy(), requires_grad=True)
    loss = build_loss(t)
    loss.backward()
    analytic = t.grad

    numeric = numeric_grad(lambda arr: build_loss(Tensor(arr)).item(), x.copy())
    np.testing.assert_allclose(analytic, numeric, rtol=tol, atol=tol)


class TestBasicOps:
    def test_add_and_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_mul_grad(self):
        check_gradient(lambda t: (t * t * 3.0).sum(), (4, 3))

    def test_div_grad(self):
        check_gradient(lambda t: (t / 2.5 + 1.0 / (t + 10.0)).sum(), (3, 3))

    def test_pow_grad(self):
        check_gradient(lambda t: ((t + 5.0) ** 3).sum(), (5,))

    def test_neg_sub(self):
        a = Tensor([2.0], requires_grad=True)
        (5.0 - a).backward()
        np.testing.assert_array_equal(a.grad, [-1.0])

    def test_matmul_grad(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(3, 2))
        check_gradient(lambda t: (t @ Tensor(w)).sum(), (4, 3))

    def test_batched_matmul_grad(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(2, 4, 3))
        check_gradient(lambda t: (t @ Tensor(w)).sum(), (2, 5, 4))

    def test_broadcast_add_grad(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(3,))
        check_gradient(lambda t: ((t + Tensor(b)) ** 2).sum(), (4, 3))

    def test_broadcast_bias_receives_summed_grad(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        (x + b).sum().backward()
        np.testing.assert_array_equal(b.grad, [4.0, 4.0, 4.0])

    def test_exp_log_grad(self):
        check_gradient(lambda t: (t.exp() + (t + 10.0).log()).sum(), (6,))

    def test_sum_axis_keepdims(self):
        check_gradient(lambda t: (t.sum(axis=1, keepdims=True) ** 2).sum(), (3, 4))

    def test_mean_grad(self):
        check_gradient(lambda t: (t.mean(axis=0) ** 2).sum(), (5, 2))

    def test_reshape_transpose_grad(self):
        check_gradient(
            lambda t: (t.reshape(2, 6).transpose(1, 0) ** 2).sum(), (3, 4)
        )

    def test_getitem_grad(self):
        check_gradient(lambda t: (t[1:3] ** 2).sum(), (5, 2))

    def test_masked_fill(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        mask = np.array([True, False, True, False])
        out = x.masked_fill(mask, -99.0)
        np.testing.assert_array_equal(out.data, [-99.0, 1.0, -99.0, 3.0])
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0, 1.0])

    def test_max_along(self):
        check_gradient(lambda t: (t.max_along(axis=1) ** 2).sum(), (4, 5))

    def test_diamond_graph_accumulates(self):
        # x used twice: grad must be the sum of both paths.
        x = Tensor([3.0], requires_grad=True)
        y = x * 2.0
        z = x * 5.0
        (y + z).backward()
        np.testing.assert_array_equal(x.grad, [7.0])

    def test_first_gradient_is_not_shared_between_tensors(self):
        # ``a + b`` hands one gradient array to both parents; each must
        # own its copy, or scaling one .grad in place scales the other.
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        a.grad *= 2
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_clip_grad_norm_over_shared_gradients(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        copies = [Tensor([0.0, 0.0], requires_grad=True) for _ in range(2)]
        for copy, source in zip(copies, (a, b)):
            copy.grad = source.grad.copy()
        norms = [SGD(params, lr=0.1).clip_grad_norm(1.0) for params in ([a, b], copies)]
        assert norms[0] == norms[1]
        np.testing.assert_array_equal(a.grad, copies[0].grad)
        np.testing.assert_array_equal(b.grad, copies[1].grad)
        np.testing.assert_allclose(np.linalg.norm([a.grad, b.grad]), 1.0)

    def test_tensor_used_twice_receives_summed_gradient(self):
        x = Tensor([3.0, -2.0], requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_array_equal(x.grad, [6.0, -4.0])
        a = Tensor([1.0, 5.0], requires_grad=True)
        (a + a).sum().backward()
        np.testing.assert_array_equal(a.grad, [2.0, 2.0])
        # The same through an interior node.
        y = a * 1.0
        a.zero_grad()
        (y + y).sum().backward()
        np.testing.assert_array_equal(a.grad, [2.0, 2.0])

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).backward()
        (x * 3.0).backward()
        np.testing.assert_array_equal(x.grad, [5.0])
        x.zero_grad()
        assert x.grad is None


class TestFunctional:
    def test_softmax_rows_sum_to_one(self):
        q, k, v = np.random.default_rng(0).normal(size=(3, 2, 2, 3, 4))
        _, weights = attention_parts(q, k, v, None)
        np.testing.assert_allclose(weights.sum(axis=-1), np.ones((2, 2, 3)))

    def test_softmax_stability_large_values(self):
        # Head size 1 and a unit query: the scores are the keys themselves.
        keys = np.array([1000.0, 1000.0, 999.0]).reshape(1, 1, 3, 1)
        _, weights = attention_parts(np.ones((1, 1, 1, 1)), keys, keys, None)
        assert np.isfinite(weights).all()

    @pytest.mark.parametrize("masks", ["causal", "padding", "both"])
    def test_attention_grad(self, masks):
        """Finite differences of the one attention node, masks included.

        Row 1 is right-padded; under ``both``, row 0 is left-padded, so
        its first query sees no key at all and must get no gradient.
        """
        batch, seq, heads, head_dim = 2, 4, 2, 3
        blocked = np.zeros((batch, 1, seq, seq), dtype=bool)
        if masks != "padding":
            blocked |= np.triu(np.ones((seq, seq), dtype=bool), k=1)
        if masks != "causal":
            keep = np.array([[0, 1, 1, 1] if masks == "both" else [1] * 4, [1, 1, 1, 0]])
            blocked |= (keep == 0)[:, None, None, :]
        w = np.random.default_rng(12).normal(size=(batch, seq, heads * head_dim))
        x = np.random.default_rng(13).normal(size=(batch, seq, 3 * heads * head_dim))
        check_gradient_at(
            lambda t: (attention(t, heads, blocked)[0] * Tensor(w)).sum(), x
        )

    def test_log_softmax_grad(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(4,))
        check_gradient(lambda t: (log_softmax(t) * Tensor(w)).sum(), (2, 4))

    def test_cross_entropy_matches_manual(self):
        logits = Tensor(np.array([[2.0, 0.0], [0.0, 2.0]]))
        loss = cross_entropy(logits, np.array([0, 1]))
        expected = -np.log(np.exp(2) / (np.exp(2) + 1))
        np.testing.assert_allclose(loss.item(), expected, rtol=1e-9)

    def test_cross_entropy_grad(self):
        targets = np.array([0, 2, 1])
        check_gradient(lambda t: cross_entropy(t, targets), (3, 4))

    def test_cross_entropy_ignore_index(self):
        targets = np.array([0, -100, 1])
        logits_data = np.random.default_rng(6).normal(size=(3, 4))
        t = Tensor(logits_data, requires_grad=True)
        loss = cross_entropy(t, targets, ignore_index=-100)
        loss.backward()
        # Ignored row gets zero gradient.
        np.testing.assert_array_equal(t.grad[1], np.zeros(4))

    def test_cross_entropy_all_ignored_raises(self):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([-1, -1]), ignore_index=-1)

    def test_cross_entropy_bad_shapes(self):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1, 2]))

    def test_layer_norm_output_stats(self):
        x = Tensor(np.random.default_rng(7).normal(5.0, 3.0, size=(4, 8)))
        w = Tensor(np.ones(8))
        b = Tensor(np.zeros(8))
        out = layer_norm(x, w, b)
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(4), atol=1e-9)
        np.testing.assert_allclose(out.data.std(axis=-1), np.ones(4), atol=1e-3)

    def test_layer_norm_grad(self):
        w = np.random.default_rng(8).normal(size=(6,))
        b = np.random.default_rng(9).normal(size=(6,))
        check_gradient(
            lambda t: (layer_norm(t, Tensor(w), Tensor(b)) ** 2).sum(), (3, 6)
        )

    @pytest.mark.parametrize("shape", [(3, 6), (2, 3, 6)])
    def test_layer_norm_grad_wrt_weight_and_bias(self, shape):
        gen = np.random.default_rng(11)
        x = gen.normal(size=shape)
        w = gen.normal(size=(6,))
        b = gen.normal(size=(6,))
        check_gradient(
            lambda t: (layer_norm(Tensor(x), t, Tensor(b)) ** 2).sum(), (6,), seed=1
        )
        check_gradient(
            lambda t: (layer_norm(Tensor(x), Tensor(w), t) ** 2).sum(), (6,), seed=2
        )
        check_gradient(
            lambda t: (layer_norm(t, Tensor(w), Tensor(b)) ** 2).sum(), shape, seed=3
        )

    @pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_linear_grad(self, shape, with_bias):
        gen = np.random.default_rng(12)
        x = gen.normal(size=shape)
        w = gen.normal(size=(4, 3))
        b = gen.normal(size=(3,)) if with_bias else None

        def bias():
            return None if b is None else Tensor(b)

        check_gradient(lambda t: (linear(t, Tensor(w), bias()) ** 2).sum(), shape)
        check_gradient(lambda t: (linear(Tensor(x), t, bias()) ** 2).sum(), (4, 3))
        if with_bias:
            check_gradient(lambda t: (linear(Tensor(x), Tensor(w), t) ** 2).sum(), (3,))

    def test_linear_matches_matmul_plus_bias(self):
        gen = np.random.default_rng(13)
        x, w, b = gen.normal(size=(2, 3, 4)), gen.normal(size=(4, 5)), gen.normal(size=5)
        out = linear(Tensor(x), Tensor(w), Tensor(b))
        assert np.array_equal(out.data, (Tensor(x) @ Tensor(w) + Tensor(b)).data)

    def test_linear_skips_frozen_gradients(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        w = Tensor(np.ones((3, 2)))
        b = Tensor(np.zeros(2))
        linear(x, w, b).sum().backward()
        assert w.grad is None and b.grad is None
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))

    def test_gelu_grad_on_wide_inputs(self):
        # The tails: tanh saturates and the cubic term dominates.
        x = np.linspace(-6.0, 6.0, 25).reshape(5, 5)
        check_gradient_at(lambda t: (gelu(t) ** 2).sum(), x)

    def test_embedding_forward(self):
        weight = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        ids = np.array([[0, 2], [1, 1]])
        out = embedding(weight, ids)
        assert out.shape == (2, 2, 3)
        np.testing.assert_array_equal(out.data[0, 1], [6.0, 7.0, 8.0])

    def test_embedding_grad_scatter(self):
        weight = Tensor(np.zeros((4, 2)), requires_grad=True)
        ids = np.array([1, 1, 3])
        embedding(weight, ids).sum().backward()
        np.testing.assert_array_equal(weight.grad[1], [2.0, 2.0])
        np.testing.assert_array_equal(weight.grad[3], [1.0, 1.0])
        np.testing.assert_array_equal(weight.grad[0], [0.0, 0.0])

    def test_embedding_out_of_range(self):
        with pytest.raises(ShapeError):
            embedding(Tensor(np.zeros((3, 2))), np.array([5]))

    @pytest.mark.parametrize("fn", [tanh, sigmoid, relu, gelu])
    def test_activation_grads(self, fn):
        check_gradient(lambda t: (fn(t) ** 2).sum(), (4, 3))

    def test_concat_grad(self):
        rng = np.random.default_rng(10)
        other = rng.normal(size=(3, 2))
        check_gradient(
            lambda t: (concat([t, Tensor(other)], axis=1) ** 2).sum(), (3, 4)
        )

    def test_concat_axis0(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((1, 3)), requires_grad=True)
        concat([a, b], axis=0).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(b.grad, np.ones((1, 3)))


class TestGraphMechanics:
    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_no_grad_is_thread_local(self):
        # Grad mode must be per-thread: the serving gateway decodes on
        # concurrent worker threads, and with a process-global flag two
        # overlapping no_grad blocks could restore each other's stale
        # snapshots, disabling autograd for the whole process.
        import threading

        from repro.autograd.tensor import grad_enabled

        barrier = threading.Barrier(2)
        seen = []

        def worker():
            with no_grad():
                barrier.wait()  # both threads inside no_grad at once
                seen.append(grad_enabled())
                barrier.wait()
            seen.append(grad_enabled())

        threads = [threading.Thread(target=worker) for _ in range(2)]
        with no_grad():
            pass  # the main thread's own toggle must not leak either
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == [False, False, True, True]
        assert grad_enabled()
        assert Tensor([1.0], requires_grad=True).requires_grad

    def test_backward_on_non_grad_raises(self):
        with pytest.raises(ShapeError):
            Tensor([1.0]).backward()

    def test_backward_on_vector_without_grad_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            (x * 2).backward()

    def test_backward_vector_with_explicit_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 3.0).backward(np.array([1.0, 10.0]))
        np.testing.assert_array_equal(x.grad, [3.0, 30.0])

    def test_detach_cuts_graph(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * 3.0).detach()
        assert not y.requires_grad

    def test_item_requires_scalar(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.0
        y.backward()
        np.testing.assert_array_equal(x.grad, [1.0])


# -- the shared kernels keep every bit of the textbook formulas ---------------
def _layer_norm_formula(x, weight, bias, eps):
    inv_n = 1.0 / x.shape[-1]
    centered = x + -(x.sum(axis=-1, keepdims=True) * inv_n)
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
    inv_std = (var + eps) ** -0.5
    normalized = centered * inv_std
    return normalized * weight + bias, normalized, inv_std


def _gelu_formula(x):
    t = np.tanh(_SQRT_2_OVER_PI * (x + 0.044715 * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def _attention_formula(q, k, v, blocked):
    batch, heads, seq, head_dim = q.shape
    scores = (q @ k.transpose(0, 1, 3, 2)) / np.sqrt(head_dim)
    if blocked is not None:
        scores = np.where(blocked, NEG_INF, scores)
    scores = scores - scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights = weights / weights.sum(axis=-1, keepdims=True)
    context = (weights @ v).transpose(0, 2, 1, 3).reshape(batch, seq, heads * head_dim)
    return context, weights


@settings(max_examples=150, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 16)),
    heads=st.integers(1, 3),
    extra_keys=st.integers(0, 5),
    log_scale=st.floats(-3.0, 3.0),
    masked=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_kernels_equal_textbook_formulas(shape, heads, extra_keys, log_scale, masked, seed):
    """``layer_norm_parts``, ``_gelu_parts`` and ``attention_parts`` work
    in place, but each returned array equals the formula's bit for bit,
    at magnitudes from 1e-3 to 1e3 and with or without a blocked mask."""
    gen = np.random.default_rng(seed)
    scale = 10.0**log_scale
    x = gen.normal(size=shape) * scale
    x_before = x.copy()
    weight, bias = gen.normal(size=(2, shape[-1]))
    for got, want in zip(
        layer_norm_parts(x, weight, bias, 1e-5), _layer_norm_formula(x, weight, bias, 1e-5)
    ):
        assert np.array_equal(got, want)
    for got, want in zip(_gelu_parts(x), _gelu_formula(x)):
        assert np.array_equal(got, want)
    assert np.array_equal(x, x_before)  # the input is never written

    batch, seq, head_dim = shape
    keys = seq + extra_keys
    q = gen.normal(size=(batch, heads, seq, head_dim)) * scale
    k, v = gen.normal(size=(2, batch, heads, keys, head_dim)) * scale
    blocked = gen.random((batch, 1, seq, keys)) < 0.4 if masked else None
    for got, want in zip(
        attention_parts(q, k, v, blocked), _attention_formula(q, k, v, blocked)
    ):
        assert np.array_equal(got, want)
