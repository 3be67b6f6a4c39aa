"""Transformer blocks (pre-norm) and stacks of them."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.errors import ModelError
from repro.nn.attention import MultiHeadAttention
from repro.nn.layers import LayerNorm, Linear
from repro.nn.module import Module
from repro.utils.rng import SeededRNG


class FeedForward(Module):
    """Position-wise feed-forward network with GELU activation."""

    def __init__(self, dim: int, hidden_dim: int, rng: SeededRNG) -> None:
        super().__init__()
        self.up = Linear(dim, hidden_dim, rng.spawn("up"))
        self.down = Linear(hidden_dim, dim, rng.spawn("down"))

    def forward(self, x: Tensor) -> Tensor:
        return self.down(F.gelu(self.up(x)))

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Graph-free :meth:`forward` on a plain array (same float ops)."""
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
    ) -> None:
        super().__init__()
        self.attn_norm = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, num_heads, rng.spawn("attn"), causal=causal)
        self.ff_norm = LayerNorm(dim)
        self.ff = FeedForward(dim, ff_dim, rng.spawn("ff"))

    def forward(
        self, x: Tensor, attention_mask: Optional[np.ndarray] = None
    ) -> Tensor:
        x = x + self.attn(self.attn_norm(x), attention_mask)
        x = x + self.ff(self.ff_norm(x))
        return x

    def incremental(
        self,
        x: np.ndarray,
        cache: dict,
        blocked: Optional[np.ndarray] = None,
        *,
        write_cols: object,
        kv_len: int,
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
    ) -> None:
        super().__init__()
        self.blocks: List[TransformerBlock] = []
        for i in range(num_layers):
            block = TransformerBlock(
                dim, num_heads, ff_dim, rng.spawn(f"block{i}"), causal=causal
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

    def init_cache(self, batch_size: int, capacity: int) -> List[dict]:
        """Fresh per-block K/V caches for incremental decoding.

        Each cache is a pair of preallocated slabs of shape
        (batch_size, H, capacity, D/H), written in place by
        :meth:`MultiHeadAttention.incremental`.
        """
        if batch_size <= 0 or capacity <= 0:
            raise ModelError(
                f"caches need a positive batch_size and capacity, got "
                f"{batch_size} and {capacity}"
            )
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
        *,
        write_cols: object,
        kv_len: int,
    ) -> np.ndarray:
        """Graph-free cached forward over new positions through all blocks."""
        for block, cache in zip(self.blocks, caches):
            x = block.incremental(
                x, cache, blocked=blocked, write_cols=write_cols, kv_len=kv_len
            )
        return self.final_norm.infer(x)
