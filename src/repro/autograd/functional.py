"""Differentiable functions built on :class:`~repro.autograd.tensor.Tensor`.

Ops with simple gradients are composed from tensor primitives; ops on the
hot path of a Transformer (attention, cross-entropy, embedding, layer
norm, linear, GELU) are one graph node each, with a hand-written backward
closure for speed and numerical stability.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.autograd.tensor import Tensor, unbroadcast

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))

#: the score written into blocked attention positions before the softmax
NEG_INF = -1e9


def log_softmax(x: Tensor) -> Tensor:
    """Numerically stable log-softmax along the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_data = shifted - log_z

    def backward(grad: np.ndarray) -> None:
        soft = np.exp(out_data)
        x._accumulate(grad - soft * grad.sum(axis=-1, keepdims=True))

    return x._make(out_data, (x,), backward)


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    ignore_index: Optional[int] = None,
) -> Tensor:
    """Mean cross-entropy of ``logits`` (N, V) against integer ``targets`` (N,).

    Positions where ``targets == ignore_index`` contribute neither loss
    nor gradient (the masked-LM and padded-sequence convention).
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects 2-D logits, got {logits.shape}")
    if targets.shape != (logits.shape[0],):
        raise ShapeError(
            f"targets shape {targets.shape} does not match logits rows {logits.shape[0]}"
        )
    valid = (
        np.ones_like(targets, dtype=bool)
        if ignore_index is None
        else targets != ignore_index
    )
    count = int(valid.sum())
    if count == 0:
        raise ShapeError("cross_entropy: every target position is ignored")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    safe_targets = np.where(valid, targets, 0)
    picked = log_probs[np.arange(len(targets)), safe_targets]
    loss_value = -(picked * valid).sum() / count

    def backward(grad: np.ndarray) -> None:
        soft = np.exp(log_probs)
        one_hot = np.zeros_like(soft)
        one_hot[np.arange(len(targets)), safe_targets] = 1.0
        g = (soft - one_hot) * valid[:, None] / count
        logits._accumulate(g * grad)

    return logits._make(np.asarray(loss_value), (logits,), backward)


def layer_norm_parts(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, eps: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm of a plain array: ``(out, normalized, inv_std)``.

    The one forward both :func:`layer_norm` and ``LayerNorm.infer`` run,
    so the training graph and the cached decode path agree bit for bit.
    The backward reuses ``normalized`` and ``inv_std``. Intermediates are
    updated in place, with each operation's operands as in the textbook
    formula (only commuted), so every rounding is unchanged.
    """
    inv_n = 1.0 / x.shape[-1]
    neg_mean = x.sum(axis=-1, keepdims=True)
    neg_mean *= -inv_n
    normalized = x + neg_mean
    out = normalized * normalized
    inv_std = out.sum(axis=-1, keepdims=True)
    inv_std *= inv_n
    inv_std += eps
    inv_std **= -0.5
    normalized *= inv_std
    np.multiply(normalized, weight, out=out)
    out += bias
    return out, normalized, inv_std


def layer_norm(
    x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5
) -> Tensor:
    """Layer normalization along the last axis, with learnable scale/shift.

    One graph node: the backward is the analytic layer-norm gradient,
    ``inv_std * (g - mean(g) - n * mean(g * n))`` with ``g = grad * weight``.
    """
    out_data, normalized, inv_std = layer_norm_parts(x.data, weight.data, bias.data, eps)

    def backward(grad: np.ndarray) -> None:
        weight._accumulate(unbroadcast(grad * normalized, weight.shape))
        bias._accumulate(unbroadcast(grad, bias.shape))
        if x.requires_grad:
            g = grad * weight.data
            mean_g = g.mean(axis=-1, keepdims=True)
            mean_gn = (g * normalized).mean(axis=-1, keepdims=True)
            x._accumulate(inv_std * (g - mean_g - normalized * mean_gn))

    return x._make(out_data, (x, weight, bias), backward)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight + bias`` over the last axis, as one graph node.

    ``weight`` is (D, O) and ``x`` is (..., D). Both backward GEMMs run on
    the flattened (rows, D) input and (rows, O) gradient: one 2-D matmul
    each, about twice as fast as numpy's per-batch loop of small ones.
    """
    out_data = x.data @ weight.data
    if bias is not None:
        out_data += bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        rows = grad.reshape(-1, grad.shape[-1])
        if x.requires_grad:
            x._accumulate((rows @ weight.data.T).reshape(x.shape))
        if weight.requires_grad:
            weight._accumulate(x.data.reshape(-1, x.shape[-1]).T @ rows)
        if bias is not None and bias.requires_grad:
            bias._accumulate(rows.sum(axis=0))

    return x._make(out_data, parents, backward)


def split_qkv(qkv: np.ndarray, num_heads: int) -> Tuple[np.ndarray, ...]:
    """Views of a fused (B, T, 3D) projection as q, k, v of (B, H, T, D/H)."""
    batch, seq, width = qkv.shape
    heads = qkv.reshape(batch, seq, 3, num_heads, width // (3 * num_heads))
    return tuple(heads.transpose(2, 0, 3, 1, 4))


def attention_parts(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, blocked: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention: ``(context, weights)`` of plain arrays.

    ``q`` is (B, H, T, D/H), ``k``/``v`` are (B, H, S, D/H), ``blocked``
    (True = hidden key) broadcasts to (B, H, T, S). ``context`` is merged
    to (B, T, D); ``weights`` (B, H, T, S) read exactly 0 at blocked keys
    of any row with an open key. :func:`attention` and
    ``MultiHeadAttention.incremental`` both run this.
    """
    batch, heads, seq, head_dim = q.shape
    scores = q @ k.transpose(0, 1, 3, 2)
    scores /= np.sqrt(head_dim)
    if blocked is not None:
        np.copyto(scores, NEG_INF, where=blocked)
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores, out=scores)
    weights /= weights.sum(axis=-1, keepdims=True)
    context = (weights @ v).transpose(0, 2, 1, 3).reshape(batch, seq, heads * head_dim)
    return context, weights


def attention(
    qkv: Tensor, num_heads: int, blocked: Optional[np.ndarray]
) -> Tuple[Tensor, np.ndarray]:
    """:func:`attention_parts` over a fused (B, T, 3D) projection, as one node.

    The analytic backward, with ``g`` the context gradient per head:
    ``dv = w^T g``, ``ds = w * (g v^T - rowsum(w * g v^T))`` (zero where
    blocked), ``dq = ds k / sqrt(d)`` and ``dk = ds^T q / sqrt(d)``.
    """
    q, k, v = split_qkv(qkv.data, num_heads)
    out_data, weights = attention_parts(q, k, v, blocked)

    def backward(grad: np.ndarray) -> None:
        batch, heads, seq, head_dim = q.shape
        g = grad.reshape(batch, seq, heads, head_dim).transpose(0, 2, 1, 3)
        d_weights = g @ v.transpose(0, 1, 3, 2)
        d_scores = weights * (
            d_weights - (d_weights * weights).sum(axis=-1, keepdims=True)
        )
        if blocked is not None:
            d_scores = np.where(blocked, 0.0, d_scores)
        d_scores /= np.sqrt(head_dim)
        d_qkv = np.empty(qkv.shape)
        d_q, d_k, d_v = split_qkv(d_qkv, num_heads)
        d_q[...] = d_scores @ k
        d_k[...] = d_scores.transpose(0, 1, 3, 2) @ q
        d_v[...] = weights.transpose(0, 1, 3, 2) @ g
        qkv._accumulate(d_qkv)

    return qkv._make(out_data, (qkv,), backward), weights


def gather_rows(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Rows of ``table`` (V, D) at integer ``ids`` of any shape.

    Raises :class:`ShapeError` on an id outside ``[0, V)``, which numpy
    would wrap (negative) or reject with a bare ``IndexError``.
    """
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding ids out of range [0, {table.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}"
        )
    return table[ids]


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` (V, D) by integer ``ids`` of any shape."""
    ids = np.asarray(ids, dtype=np.int64)
    out_data = gather_rows(weight.data, ids)

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(weight.data)
        np.add.at(full, ids.reshape(-1), grad.reshape(-1, weight.shape[1]))
        weight._accumulate(full)

    return weight._make(out_data, (weight,), backward)


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    out_data = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * (1.0 - out_data**2))

    return x._make(out_data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic sigmoid."""
    out_data = 1.0 / (1.0 + np.exp(-x.data))

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * out_data * (1.0 - out_data))

    return x._make(out_data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    """Elementwise rectified linear unit."""
    mask = x.data > 0
    out_data = np.where(mask, x.data, 0.0)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(np.where(mask, grad, 0.0))

    return x._make(out_data, (x,), backward)


def _gelu_parts(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """GELU of a plain array plus its inner tanh (the backward reuses it).

    ``0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x*x*x)))``, one
    operation at a time into two buffers: operands are only commuted,
    never regrouped, so each rounding is the formula's.
    """
    # x * x * x, not x**3: numpy sends a non-square integer power of a
    # mixed-sign array through libm pow, 50 to 70 times slower.
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)
    out = t + 1.0
    out *= 0.5 * x
    return out, t


def gelu_array(x: np.ndarray) -> np.ndarray:
    """Graph-free GELU: the forward value :func:`gelu` records."""
    return _gelu_parts(x)[0]


def gelu(x: Tensor) -> Tensor:
    """GELU activation (tanh approximation, as used by BERT and GPT)."""
    out_data, t = _gelu_parts(x.data)

    def backward(grad: np.ndarray) -> None:
        du = 1.0 + 3 * 0.044715 * (x.data * x.data)
        dt = (1.0 - t * t) * _SQRT_2_OVER_PI * du
        x._accumulate(grad * (0.5 * (1.0 + t) + 0.5 * x.data * dt))

    return x._make(out_data, (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis``."""
    if not tensors:
        raise ShapeError("concat requires at least one tensor")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        moved = np.moveaxis(grad, axis, 0)
        for t, start, end in zip(tensors, offsets[:-1], offsets[1:]):
            piece = np.moveaxis(moved[start:end], 0, axis)
            t._accumulate(piece)

    return tensors[0]._make(out_data, tuple(tensors), backward)
