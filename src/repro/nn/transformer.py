"""Transformer blocks (pre-norm) and stacks of them."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.nn.attention import MultiHeadAttention
from repro.nn.layers import Dropout, LayerNorm, Linear
from repro.nn.module import Module
from repro.utils.rng import SeededRNG


class FeedForward(Module):
    """Position-wise feed-forward network with GELU activation."""

    def __init__(self, dim: int, hidden_dim: int, rng: SeededRNG, dropout: float = 0.0) -> None:
        super().__init__()
        self.up = Linear(dim, hidden_dim, rng.spawn("up"))
        self.down = Linear(hidden_dim, dim, rng.spawn("down"))
        self.drop = Dropout(dropout, rng.spawn("drop"))

    def forward(self, x: Tensor) -> Tensor:
        return self.drop(self.down(F.gelu(self.up(x))))

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Graph-free inference :meth:`forward` (no dropout)."""
        return self.down.infer(F.gelu_array(self.up.infer(x)))


class TransformerBlock(Module):
    """Pre-norm Transformer block: LN -> attention -> residual, LN -> FFN -> residual."""

    def __init__(
        self,
        dim: int,
        num_heads: int,
        ff_dim: int,
        rng: SeededRNG,
        causal: bool = False,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        self.attn_norm = LayerNorm(dim)
        self.attn = MultiHeadAttention(
            dim, num_heads, rng.spawn("attn"), causal=causal, dropout=dropout
        )
        self.ff_norm = LayerNorm(dim)
        self.ff = FeedForward(dim, ff_dim, rng.spawn("ff"), dropout=dropout)
        self.resid_drop = Dropout(dropout, rng.spawn("resid"))

    def forward(
        self, x: Tensor, attention_mask: Optional[np.ndarray] = None
    ) -> Tensor:
        x = x + self.resid_drop(self.attn(self.attn_norm(x), attention_mask))
        x = x + self.ff(self.ff_norm(x))
        return x

    def incremental(
        self,
        x: np.ndarray,
        cache: dict,
        blocked: Optional[np.ndarray] = None,
        write_cols: Optional[object] = None,
        kv_len: Optional[int] = None,
    ) -> np.ndarray:
        """Graph-free cached forward over new positions (B, T, D) arrays."""
        x = x + self.attn.incremental(
            self.attn_norm.infer(x), cache,
            blocked=blocked, write_cols=write_cols, kv_len=kv_len,
        )
        return x + self.ff.infer(self.ff_norm.infer(x))


class TransformerStack(Module):
    """A stack of Transformer blocks with a final layer norm."""

    def __init__(
        self,
        num_layers: int,
        dim: int,
        num_heads: int,
        ff_dim: int,
        rng: SeededRNG,
        causal: bool = False,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        self.blocks: List[TransformerBlock] = []
        for i in range(num_layers):
            block = TransformerBlock(
                dim, num_heads, ff_dim, rng.spawn(f"block{i}"),
                causal=causal, dropout=dropout,
            )
            self.blocks.append(block)
            # Register via attribute assignment so parameters are tracked.
            setattr(self, f"block{i}", block)
        self.final_norm = LayerNorm(dim)

    def forward(
        self, x: Tensor, attention_mask: Optional[np.ndarray] = None
    ) -> Tensor:
        for block in self.blocks:
            x = block(x, attention_mask)
        return self.final_norm(x)

    def init_cache(
        self,
        batch_size: Optional[int] = None,
        capacity: Optional[int] = None,
    ) -> List[object]:
        """Fresh per-block K/V caches for incremental decoding.

        With no arguments the caches are preallocated
        :class:`~repro.serving.kvcache.KVCache` slabs that append in
        place with amortized capacity doubling. With ``batch_size`` and
        ``capacity`` they are preallocated slotted slabs
        (B, H, capacity, D/H) for the padding-aware batched layout (see
        :meth:`MultiHeadAttention.incremental`).
        """
        if batch_size is None:
            # Imported here (not at module top) because repro.serving
            # imports repro.nn; at call time both are fully loaded.
            from repro.serving.kvcache import KVCache

            return [KVCache() for _ in self.blocks]
        if capacity is None or capacity <= 0 or batch_size <= 0:
            raise ValueError("slotted caches need positive batch_size and capacity")
        caches = []
        for block in self.blocks:
            attn = block.attn
            shape = (batch_size, attn.num_heads, capacity, attn.head_dim)
            caches.append({"k": np.zeros(shape), "v": np.zeros(shape)})
        return caches

    def incremental(
        self,
        x: np.ndarray,
        caches: List[dict],
        blocked: Optional[np.ndarray] = None,
        write_cols: Optional[object] = None,
        kv_len: Optional[int] = None,
    ) -> np.ndarray:
        """Graph-free cached forward over new positions through all blocks."""
        for block, cache in zip(self.blocks, caches):
            x = block.incremental(
                x, cache, blocked=blocked, write_cols=write_cols, kv_len=kv_len
            )
        return self.final_norm.infer(x)
