"""The body both language models share: embeddings under a Transformer stack.

:class:`~repro.models.gpt.GPTModel` and :class:`~repro.models.bert.BERTModel`
differ only in the attention mask (``config.causal``) and in the head
they put on top; both heads are tied to the token embedding.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import Tensor
from repro.errors import ModelError
from repro.models.config import ModelConfig
from repro.nn import Embedding, Module, TransformerStack
from repro.utils.rng import SeededRNG


class TransformerLM(Module):
    """Learned token + position embeddings and a pre-norm Transformer stack."""

    def __init__(self, config: ModelConfig, seed: int) -> None:
        super().__init__()
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
            causal=config.causal,
        )

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
