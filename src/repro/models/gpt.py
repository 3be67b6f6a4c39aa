"""GPT-style decoder-only causal language model.

Mirrors the architecture of the GPT family the tutorial introduces:
learned token + position embeddings, a stack of causal pre-norm
Transformer blocks, and a language-model head tied to the input
embedding (as in GPT-2/GPT-3).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import Tensor
from repro.errors import ModelError
from repro.models.config import ModelConfig
from repro.nn import Embedding, Linear, Module, TransformerStack
from repro.utils.rng import SeededRNG


class GPTModel(Module):
    """Decoder-only causal LM: ids (B, T) -> next-token logits (B, T, V)."""

    def __init__(self, config: ModelConfig, seed: int = 0) -> None:
        super().__init__()
        if not config.causal:
            raise ModelError("GPTModel requires a causal config")
        self.config = config
        rng = SeededRNG(seed)
        self.token_emb = Embedding(config.vocab_size, config.dim, rng.spawn("tok"))
        self.pos_emb = Embedding(config.max_seq_len, config.dim, rng.spawn("pos"))
        self.stack = TransformerStack(
            num_layers=config.num_layers,
            dim=config.dim,
            num_heads=config.num_heads,
            ff_dim=config.ff_dim,
            rng=rng.spawn("stack"),
            causal=True,
            dropout=config.dropout,
        )
        self.lm_head: Optional[Linear] = None
        if not config.tie_embeddings:
            self.lm_head = Linear(config.dim, config.vocab_size, rng.spawn("head"))

    def forward(
        self, ids: np.ndarray, attention_mask: Optional[np.ndarray] = None
    ) -> Tensor:
        """Return next-token logits of shape (B, T, vocab)."""
        hidden = self.encode(ids, attention_mask)
        return self.logits_from_hidden(hidden)

    def encode(
        self, ids: np.ndarray, attention_mask: Optional[np.ndarray] = None
    ) -> Tensor:
        """Return final hidden states of shape (B, T, dim)."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 2:
            raise ModelError(f"ids must be 2-D (batch, seq), got shape {ids.shape}")
        _, seq = ids.shape
        if seq > self.config.max_seq_len:
            raise ModelError(
                f"sequence length {seq} exceeds max_seq_len {self.config.max_seq_len}"
            )
        positions = np.broadcast_to(np.arange(seq), ids.shape)
        x = self.token_emb(ids) + self.pos_emb(positions)
        return self.stack(x, attention_mask)

    def logits_from_hidden(self, hidden: Tensor) -> Tensor:
        """Project hidden states to vocabulary logits."""
        if self.lm_head is not None:
            return self.lm_head(hidden)
        # Weight tying: share the token embedding as the output projection.
        return hidden @ self.token_emb.weight.transpose(1, 0)

    # -- incremental decoding (KV cache) -----------------------------------
    def init_cache(
        self,
        batch_size: Optional[int] = None,
        capacity: Optional[int] = None,
    ) -> list:
        """Fresh per-layer K/V caches for cached decoding.

        With no arguments: in-place :class:`~repro.serving.kvcache.KVCache`
        slabs for the single-sequence :meth:`forward_incremental` path.
        With ``batch_size`` and ``capacity``: preallocated
        slotted caches for the padding-aware batched path of
        :mod:`repro.serving`.
        """
        return self.stack.init_cache(batch_size=batch_size, capacity=capacity)

    def encode_chunk(
        self,
        ids: np.ndarray,
        positions: np.ndarray,
        caches: list,
        blocked: Optional[np.ndarray] = None,
        write_cols: Optional[object] = None,
        kv_len: Optional[int] = None,
    ) -> Tensor:
        """Hidden states for a chunk of new positions, updating the caches.

        Inference-only. ``ids`` has shape (B, T) — a whole-prompt (or
        chunked) causal prefill when T > 1, a decode step when T = 1.
        ``positions`` holds each token's absolute position, broadcastable
        to (B, T), so ragged batches can run rows at different offsets.
        ``blocked``/``write_cols``/``kv_len`` are forwarded to
        :meth:`repro.nn.MultiHeadAttention.incremental`. Past the
        embeddings the blocks run graph-free on plain arrays; only the
        returned hidden state is wrapped in a :class:`Tensor`.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 2 or ids.shape[1] < 1:
            raise ModelError(f"ids must be 2-D (batch, chunk), got shape {ids.shape}")
        positions = np.broadcast_to(np.asarray(positions, dtype=np.int64), ids.shape)
        if int(positions.max()) >= self.config.max_seq_len:
            raise ModelError(
                f"position {int(positions.max())} exceeds max_seq_len "
                f"{self.config.max_seq_len}"
            )
        x = (self.token_emb(ids) + self.pos_emb(positions)).data
        return Tensor(self.stack.incremental(
            x, caches, blocked=blocked, write_cols=write_cols, kv_len=kv_len
        ))

    def forward_chunk(
        self,
        ids: np.ndarray,
        positions: np.ndarray,
        caches: list,
        blocked: Optional[np.ndarray] = None,
        write_cols: Optional[object] = None,
        kv_len: Optional[int] = None,
    ) -> Tensor:
        """Logits for a chunk of new positions (see :meth:`encode_chunk`)."""
        hidden = self.encode_chunk(
            ids, positions, caches,
            blocked=blocked, write_cols=write_cols, kv_len=kv_len,
        )
        return self.logits_from_hidden(hidden)

    def forward_incremental(
        self, ids_step: np.ndarray, position: int, caches: list
    ) -> Tensor:
        """Logits for one new position, reusing cached keys/values.

        Inference-only. ``ids_step`` has shape (B, 1); ``position`` is
        the absolute position of that token. Produces logits identical
        to a full :meth:`forward` over the whole prefix.
        """
        ids_step = np.asarray(ids_step, dtype=np.int64)
        if ids_step.ndim != 2 or ids_step.shape[1] != 1:
            raise ModelError(f"ids_step must be (batch, 1), got {ids_step.shape}")
        if position >= self.config.max_seq_len:
            raise ModelError(
                f"position {position} exceeds max_seq_len {self.config.max_seq_len}"
            )
        return self.forward_chunk(
            ids_step, np.full_like(ids_step, position), caches
        )
