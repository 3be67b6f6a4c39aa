"""Scaled dot-product multi-head attention (the heart of the Transformer).

The implementation follows "Attention Is All You Need": queries, keys and
values are linear projections of the input, split into heads, attended
with scaled dot products, re-merged and projected out. Causal and padding
masks are boolean numpy arrays (True = *blocked* position).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.errors import ModelError
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.utils.rng import SeededRNG

NEG_INF = -1e9

# One cached upper-triangular mask, grown geometrically and sliced per
# request: every (seq, cached_len) mask shape used by full forwards,
# chunked prefill, and decode steps is a view into this triangle, so the
# hot path never rebuilds a boolean matrix per forward. The cache is
# read-only; callers that need to mutate must copy.
_MASK_CAPACITY = 0
_MASK: Optional[np.ndarray] = None


def causal_mask(seq_len: int) -> np.ndarray:
    """Return a (seq_len, seq_len) bool mask blocking future positions.

    The returned array is a read-only view into a shared cached
    triangle (rebuilt only when a larger ``seq_len`` is requested), so
    repeated calls cost a slice, not an allocation.
    """
    global _MASK, _MASK_CAPACITY
    if seq_len > _MASK_CAPACITY:
        _MASK_CAPACITY = max(seq_len, 2 * _MASK_CAPACITY, 64)
        _MASK = np.triu(
            np.ones((_MASK_CAPACITY, _MASK_CAPACITY), dtype=bool), k=1
        )
        _MASK.setflags(write=False)
    return _MASK[:seq_len, :seq_len]


def chunk_causal_mask(start: int, stop: int) -> np.ndarray:
    """Causal mask for a prefill chunk over absolute columns.

    Shape (stop - start, stop): the query at absolute position
    ``start + t`` may attend keys ``0..start + t`` (earlier chunks and
    any cache-preloaded prefix included). A read-only view into the
    same cached triangle as :func:`causal_mask`.
    """
    return causal_mask(stop)[start:stop]


def padding_mask(attention_mask: np.ndarray) -> np.ndarray:
    """Turn a (B, T) 1/0 attention mask into a (B, 1, 1, T) blocked mask.

    Broadcasting against (B, H, T, T) attention scores blocks every
    query's view of padded key positions.
    """
    attn = np.asarray(attention_mask)
    return (attn == 0)[:, None, None, :]


class MultiHeadAttention(Module):
    """Multi-head self-attention with optional causal masking."""

    def __init__(
        self,
        dim: int,
        num_heads: int,
        rng: SeededRNG,
        causal: bool = False,
    ) -> None:
        super().__init__()
        if dim % num_heads != 0:
            raise ModelError(f"dim {dim} must be divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.causal = causal
        self.query = Linear(dim, dim, rng.spawn("q"))
        self.key = Linear(dim, dim, rng.spawn("k"))
        self.value = Linear(dim, dim, rng.spawn("v"))
        self.out = Linear(dim, dim, rng.spawn("o"))
        self._last_attention: Optional[np.ndarray] = None

    def forward(
        self, x: Tensor, attention_mask: Optional[np.ndarray] = None
    ) -> Tensor:
        """Attend over ``x`` of shape (B, T, D).

        Args:
            x: input activations, shape (batch, seq, dim).
            attention_mask: optional (batch, seq) array of 1s (keep) and
                0s (padding) in the HuggingFace convention.
        """
        batch, seq, _ = x.shape
        q = self._split_heads(self.query(x), batch, seq)
        k = self._split_heads(self.key(x), batch, seq)
        v = self._split_heads(self.value(x), batch, seq)

        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(self.head_dim))
        blocked = np.zeros((batch, 1, seq, seq), dtype=bool)
        if self.causal:
            blocked = blocked | causal_mask(seq)[None, None, :, :]
        if attention_mask is not None:
            blocked = blocked | padding_mask(attention_mask)
        scores = scores.masked_fill(blocked, NEG_INF)

        weights = F.softmax(scores, axis=-1)
        self._last_attention = weights.data
        context = weights @ v
        merged = context.transpose(0, 2, 1, 3).reshape(batch, seq, self.dim)
        return self.out(merged)

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        """(B, T, D) -> (B, H, T, D/H), for a Tensor or a plain array."""
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(
            0, 2, 1, 3
        )

    @property
    def last_attention(self) -> Optional[np.ndarray]:
        """Attention weights of the most recent forward pass (B, H, T, S).

        Recorded by both the full :meth:`forward` and the cached
        :meth:`incremental` path, so introspection never returns stale
        weights from a previous non-cached call.
        """
        return self._last_attention

    def incremental(
        self,
        x: np.ndarray,
        cache: dict,
        blocked: Optional[np.ndarray] = None,
        *,
        write_cols: object,
        kv_len: int,
    ) -> np.ndarray:
        """Attend new positions against cached keys/values.

        Inference-only, graph-free fast path for autoregressive decoding:
        ``x`` is a plain (B, T, D) array of the new positions — a single
        decode step (T = 1) or a prompt-prefill chunk (T > 1, with
        ``blocked`` carrying the in-chunk causal mask) — and the result
        is a plain (B, T, D) array. No autograd graph is built. The
        projections run through each Linear's ``infer`` kernel, so the
        output is bit-identical to the Tensor ops of :meth:`forward`'s
        projections.

        ``cache["k"]``/``"v"`` are preallocated slabs of shape
        (B, H, capacity, D/H) that accumulate this layer's K/V across
        steps, so earlier positions are never recomputed. The new K/V
        are written at ``write_cols`` (a ``slice`` of columns shared by
        every row, or a per-row int array for a ragged decode step with
        T = 1) and only the first ``kv_len`` key columns are attended.
        ``blocked`` is a boolean mask broadcastable to (B, H, T, kv_len),
        True = position blocked (causal future, padding, or another
        row's slots).
        """
        batch, seq, _ = x.shape
        q = self._split_heads(self.query.infer(x), batch, seq)
        k = self._split_heads(self.key.infer(x), batch, seq)
        v = self._split_heads(self.value.infer(x), batch, seq)
        if isinstance(write_cols, slice):
            cache["k"][:, :, write_cols] = k
            cache["v"][:, :, write_cols] = v
        else:
            rows = np.arange(batch)
            cache["k"][rows, :, write_cols] = k[:, :, 0]
            cache["v"][rows, :, write_cols] = v[:, :, 0]
        keys, values = cache["k"][:, :, :kv_len], cache["v"][:, :, :kv_len]

        scores = (q @ keys.transpose(0, 1, 3, 2)) / np.sqrt(self.head_dim)
        if blocked is not None:
            scores = np.where(blocked, NEG_INF, scores)
        shifted = scores - scores.max(axis=-1, keepdims=True)
        weights = np.exp(shifted)
        weights = weights / weights.sum(axis=-1, keepdims=True)
        self._last_attention = weights
        context = weights @ values
        merged = context.transpose(0, 2, 1, 3).reshape(batch, seq, self.dim)
        return self.out.infer(merged)
