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
from repro.autograd import functional as F
from repro.errors import ModelError
from repro.models.body import TransformerLM
from repro.models.config import ModelConfig


class GPTModel(TransformerLM):
    """Decoder-only causal LM: ids (B, T) -> next-token logits (B, T, V)."""

    def __init__(self, config: ModelConfig, seed: int = 0) -> None:
        if not config.causal:
            raise ModelError("GPTModel requires a causal config")
        super().__init__(config, seed)

    def forward(
        self, ids: np.ndarray, attention_mask: Optional[np.ndarray] = None
    ) -> Tensor:
        """Return next-token logits of shape (B, T, vocab)."""
        hidden = self.encode(ids, attention_mask)
        return F.linear(hidden, self.token_emb.weight.transpose(1, 0))

    def logits_from_hidden(self, hidden: np.ndarray) -> np.ndarray:
        """Logits of plain hidden states: the tied-embedding product that
        :meth:`forward`'s ``F.linear`` runs, without a graph."""
        return hidden @ self.token_emb.weight.data.T

    # -- incremental decoding (KV cache) -----------------------------------
    def init_cache(self, batch_size: int, capacity: int) -> list:
        """Fresh per-layer K/V caches of ``capacity`` columns per row.

        Used by the single-row cached :func:`repro.generation.generate`
        and by the padding-aware batched path of :mod:`repro.serving`.
        """
        return self.stack.init_cache(batch_size, capacity)

    def encode_chunk(
        self,
        ids: np.ndarray,
        positions: np.ndarray,
        caches: list,
        blocked: Optional[np.ndarray] = None,
        *,
        write_cols: object,
        kv_len: int,
    ) -> np.ndarray:
        """Hidden states for a chunk of new positions, updating the caches.

        Inference-only. ``ids`` has shape (B, T) — a whole-prompt (or
        chunked) causal prefill when T > 1, written to the column
        ``slice`` in ``write_cols``; a decode step when T = 1, written to
        one column shared by every row (a ``slice``) or to each row's own
        column (an int array). ``positions`` holds each token's absolute
        position, broadcastable to (B, T), so ragged batches can run rows
        at different offsets. Attention reads the first ``kv_len`` cache
        columns; ``blocked``/``write_cols``/``kv_len`` are forwarded to
        :meth:`repro.nn.MultiHeadAttention.incremental`. A ``kv_len``
        past the caches' capacity, or a write column outside
        ``[0, kv_len)``, raises :class:`ModelError`, and a token id
        outside the vocabulary :class:`ShapeError`, each before any
        column is written. No :class:`Tensor` is built: the embedding
        rows are gathered from the weight arrays, the blocks run on
        plain arrays, and the result is a plain (B, T, D) array.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 2 or ids.shape[1] < 1:
            raise ModelError(f"ids must be 2-D (batch, chunk), got shape {ids.shape}")
        positions = np.asarray(positions, dtype=np.int64)
        if int(positions.max()) >= self.config.max_seq_len:
            raise ModelError(
                f"position {int(positions.max())} exceeds max_seq_len "
                f"{self.config.max_seq_len}"
            )
        _check_cache_bounds(caches, ids.shape[1], write_cols, kv_len)
        x = F.gather_rows(self.token_emb.weight.data, ids)
        x += F.gather_rows(self.pos_emb.weight.data, positions)
        return self.stack.incremental(
            x, caches, blocked=blocked, write_cols=write_cols, kv_len=kv_len
        )

    def forward_chunk(
        self,
        ids: np.ndarray,
        positions: np.ndarray,
        caches: list,
        blocked: Optional[np.ndarray] = None,
        *,
        write_cols: object,
        kv_len: int,
    ) -> np.ndarray:
        """Logits (B, T, V) for a chunk of new positions (see :meth:`encode_chunk`)."""
        hidden = self.encode_chunk(
            ids, positions, caches,
            blocked=blocked, write_cols=write_cols, kv_len=kv_len,
        )
        return self.logits_from_hidden(hidden)


def _check_cache_bounds(caches: list, width: int, write_cols: object, kv_len: int) -> None:
    """Reject a chunk whose K/V writes or reads fall outside the caches.

    numpy would clip an out-of-range column ``slice`` (silently dropping
    the new K/V) and wrap a negative column index, so both are checked
    here, once per chunk rather than once per layer.
    """
    capacity = caches[0]["k"].shape[2]
    if kv_len > capacity:
        raise ModelError(f"kv_len {kv_len} exceeds the caches' capacity {capacity}")
    if isinstance(write_cols, slice):
        low, high, _ = write_cols.indices(capacity)
        if high - low != width:
            raise ModelError(f"write columns {low}:{high} do not fit a chunk of {width}")
    else:
        cols = np.asarray(write_cols)
        low, high = int(cols.min()), int(cols.max()) + 1
        if width != 1:
            raise ModelError(f"per-row write columns need a chunk of 1, got {width}")
    if low < 0 or high > kv_len:
        raise ModelError(
            f"write columns {low}..{high - 1} fall outside the {kv_len} attended columns"
        )
