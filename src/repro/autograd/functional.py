"""Differentiable functions built on :class:`~repro.autograd.tensor.Tensor`.

Ops with simple gradients are composed from tensor primitives; ops on the
hot path of a Transformer (softmax, cross-entropy, embedding) carry
hand-written backward closures for efficiency and numerical stability.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.autograd.tensor import Tensor, grad_enabled

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate((grad - dot) * out_data)

    return x._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z

    def backward(grad: np.ndarray) -> None:
        soft = np.exp(out_data)
        x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

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


def layer_norm(
    x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5
) -> Tensor:
    """Layer normalization along the last axis, with learnable scale/shift."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normalized = centered * ((var + eps) ** -0.5)
    return normalized * weight + bias


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` (V, D) by integer ``ids`` of any shape."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= weight.shape[0]):
        raise ShapeError(
            f"embedding ids out of range [0, {weight.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}"
        )
    out_data = weight.data[ids]

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
    """GELU of a plain array plus its inner tanh (the backward reuses it)."""
    t = np.tanh(_SQRT_2_OVER_PI * (x + 0.044715 * x**3))
    return 0.5 * x * (1.0 + t), t


def gelu_array(x: np.ndarray) -> np.ndarray:
    """Graph-free GELU: the forward value :func:`gelu` records."""
    return _gelu_parts(x)[0]


def gelu(x: Tensor) -> Tensor:
    """GELU activation (tanh approximation, as used by BERT and GPT)."""
    out_data, t = _gelu_parts(x.data)

    def backward(grad: np.ndarray) -> None:
        du = 1.0 + 3 * 0.044715 * x.data**2
        dt = (1.0 - t**2) * _SQRT_2_OVER_PI * du
        x._accumulate(grad * (0.5 * (1.0 + t) + 0.5 * x.data * dt))

    return x._make(out_data, (x,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: zero elements with probability ``p`` during training."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ShapeError(f"dropout probability must be in [0, 1), got {p}")
    keep = (rng.random(x.shape) >= p).astype(np.float64) / (1.0 - p)
    return x * Tensor(keep)


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
