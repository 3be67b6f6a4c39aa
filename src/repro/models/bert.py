"""BERT-style encoder-only masked language model.

Bidirectional Transformer encoder with learned token + position
embeddings, pre-trained with masked language modeling (Section 2.2 of
the tutorial), usable afterwards as a text encoder for classification,
similarity and retrieval tasks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import Tensor
from repro.errors import ModelError
from repro.models.body import TransformerLM
from repro.models.config import ModelConfig


class BERTModel(TransformerLM):
    """Encoder-only MLM: ids (B, T) -> per-position vocab logits (B, T, V)."""

    def __init__(self, config: ModelConfig, seed: int = 0) -> None:
        if config.causal:
            raise ModelError("BERTModel requires a non-causal config")
        super().__init__(config, seed)

    def forward(
        self, ids: np.ndarray, attention_mask: Optional[np.ndarray] = None
    ) -> Tensor:
        """Return MLM logits of shape (B, T, vocab) (the tied embedding)."""
        hidden = self.encode(ids, attention_mask)
        return hidden @ self.token_emb.weight.transpose(1, 0)

    def pooled(
        self, ids: np.ndarray, attention_mask: Optional[np.ndarray] = None
    ) -> Tensor:
        """Mean-pool hidden states over real (non-padded) positions.

        Returns a (B, dim) sentence representation used by classifiers
        and by the NeuralDB retrieval index.
        """
        hidden = self.encode(ids, attention_mask)
        if attention_mask is None:
            return hidden.mean(axis=1)
        mask = np.asarray(attention_mask, dtype=np.float64)[:, :, None]
        counts = np.maximum(mask.sum(axis=1), 1.0)
        summed = (hidden * Tensor(mask)).sum(axis=1)
        return summed * Tensor(1.0 / counts)

    def embed_texts(self, batches_of_ids: np.ndarray, attention_mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Inference-mode sentence embeddings as a plain numpy array."""
        from repro.autograd import no_grad

        with no_grad():
            return self.pooled(batches_of_ids, attention_mask).data
