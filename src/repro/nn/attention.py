"""Scaled dot-product multi-head attention (the heart of the Transformer).

As in "Attention Is All You Need": one fused linear projection of the
input gives queries, keys and values, which are split into heads,
attended by :func:`repro.autograd.functional.attention_parts`, re-merged
and projected out. Causal and padding masks are boolean numpy arrays
(True = *blocked* position).
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

# One cached upper-triangular mask, grown geometrically: every causal
# mask a forward, prefill or decode step uses is a read-only view into
# it, so the hot path never rebuilds a boolean matrix. Callers that need
# to mutate must copy.
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
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.causal = causal
        # Column blocks [q | k | v], each the Xavier draw of a separate
        # (D, D) projection, so the fused layer starts as unfused Q, K, V.
        self.qkv = Linear(dim, 3 * dim, rng.spawn("qkv"))
        self.qkv.weight.data = np.concatenate(
            [Linear(dim, dim, rng.spawn(name)).weight.data for name in "qkv"],
            axis=1,
        )
        self.out = Linear(dim, dim, rng.spawn("o"))
        #: weights (B, H, T, S) of the latest :meth:`forward` or
        #: :meth:`incremental` call, for introspection
        self.last_attention: Optional[np.ndarray] = None

    def forward(
        self, x: Tensor, attention_mask: Optional[np.ndarray] = None
    ) -> Tensor:
        """Attend over ``x`` of shape (B, T, D).

        Args:
            x: input activations, shape (batch, seq, dim).
            attention_mask: optional (batch, seq) array of 1s (keep) and
                0s (padding) in the HuggingFace convention.
        """
        blocked = causal_mask(x.shape[1]) if self.causal else None
        if attention_mask is not None:
            padded = padding_mask(attention_mask)
            blocked = padded if blocked is None else blocked | padded
        context, self.last_attention = F.attention(
            self.qkv(x), self.num_heads, blocked
        )
        return self.out(context)

    def incremental(
        self,
        x: np.ndarray,
        cache: dict,
        blocked: Optional[np.ndarray] = None,
        *,
        write_cols: object,
        kv_len: int,
    ) -> np.ndarray:
        """Graph-free attention of new positions over cached keys/values.

        ``x`` is a plain (B, T, D) array: a prefill (T > 1, ``blocked``
        carrying its causal mask) or a decode step (T = 1). It runs the
        kernels :meth:`forward` records, ``qkv.infer`` and
        :func:`F.attention_parts`, so both paths agree bit for bit. The
        new K/V go into the (B, H, capacity, D/H) slabs
        ``cache["k"]``/``"v"`` at ``write_cols`` (a ``slice`` shared by
        every row, or a per-row int array when T = 1), and the first
        ``kv_len`` columns are attended. ``blocked`` broadcasts to
        (B, H, T, kv_len), True = hidden (causal future, padding, or
        another row's slots).
        """
        q, k, v = F.split_qkv(self.qkv.infer(x), self.num_heads)
        if isinstance(write_cols, slice):
            cache["k"][:, :, write_cols] = k
            cache["v"][:, :, write_cols] = v
        else:
            rows = np.arange(len(x))
            cache["k"][rows, :, write_cols] = k[:, :, 0]
            cache["v"][rows, :, write_cols] = v[:, :, 0]
        context, self.last_attention = F.attention_parts(
            q, cache["k"][:, :, :kv_len], cache["v"][:, :, :kv_len], blocked
        )
        return self.out.infer(context)
