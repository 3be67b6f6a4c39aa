"""Fact retrieval: lexical overlap baseline vs neural embedding index.

The :class:`EmbeddingRetriever` scales to corpus-size fact stores
(10^5+) with three mechanisms:

* **Two-stage retrieval.** An :class:`~repro.neuraldb.index.InvertedIndex`
  proposes a candidate set from token postings; only those candidates
  are scored against the query embedding. ``mode="auto"`` keeps the
  exact dense scan for small stores (at or below ``DENSE_CUTOFF``
  facts, where a scan is cheaper than it is wrong) and switches to
  two-stage above it. Queries matching no postings fall back to dense.
* **Incremental maintenance.** ``add_fact`` embeds exactly the one new
  fact into a capacity-doubling row matrix; ``remove_fact`` tombstones
  its row and drops its postings. Neither re-embeds the corpus.
* **Blocked embedding.** Index builds run the encoder in
  ``embed_block``-sized batches, so a 10^5-fact build never
  materializes one corpus-sized activation tensor.

:class:`RetrieverStats` counts embedded texts and scored rows so tests
and benchmarks can assert the work actually done, not just timings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NeuralDBError
from repro.models import BERTModel, ModelConfig
from repro.neuraldb.index import InvertedIndex
from repro.tokenizers import WhitespaceTokenizer
from repro.training import pretrain_mlm
from repro.utils.text import jaccard

#: encoder width
DIM = 32
#: ``mode="auto"`` scans densely at or below this many facts
DENSE_CUTOFF = 512
#: batch size and learning rate of :meth:`EmbeddingRetriever.train_contrastive`
CONTRASTIVE_BATCH, CONTRASTIVE_LR = 12, 2e-3


@dataclass
class RetrieverStats:
    """Work counters for one :class:`EmbeddingRetriever`."""

    dense_queries: int = 0
    dense_fallbacks: int = 0
    #: rows scored against a query embedding (the per-query work)
    facts_scored: int = 0
    #: texts run through the encoder (builds + mutations + queries)
    embedded_texts: int = 0


class LexicalRetriever:
    """Rank facts by word-overlap with the query."""

    def __init__(self, facts: Sequence[str]) -> None:
        if not facts:
            raise NeuralDBError("cannot index zero facts")
        self.facts = list(facts)

    def add_fact(self, fact: str) -> None:
        self.facts.append(fact)

    def remove_fact(self, fact: str) -> None:
        try:
            self.facts.remove(fact)
        except ValueError:
            raise NeuralDBError(f"fact not stored: {fact!r}") from None

    def retrieve(self, query: str, top_k: int = 3) -> List[Tuple[str, float]]:
        scored = [(fact, jaccard(query, fact)) for fact in self.facts]
        scored.sort(key=lambda pair: -pair[1])
        return scored[:top_k]


class EmbeddingRetriever:
    """Dense retrieval over a BERT encoder pre-trained on the fact store.

    The encoder is MLM-pretrained on the facts themselves (no labels),
    then every fact is embedded once; queries embed at ask time and rank
    by cosine similarity — exhaustively for small stores, over inverted-
    index candidates for large ones (see the module docstring).

    ``vocab_size`` bounds the tokenizer vocabulary and
    ``pretrain_sample`` caps how many facts the tokenizer/MLM stages
    see (an evenly strided, deterministic sample) — both matter only at
    corpus scale, where training on every fact would dominate build
    time without improving a 2-layer encoder.
    """

    # Generic question phrasings, added to the tokenizer's training text
    # so that query words are in-vocabulary at ask time.
    QUESTION_PHRASES = [
        "where does work ?",
        "where is located ?",
        "who works in ?",
    ]

    def __init__(
        self,
        facts: Sequence[str],
        pretrain_steps: int = 60,
        seed: int = 0,
        vocab_size: int = 1024,
        pretrain_sample: Optional[int] = None,
        embed_block: int = 256,
    ) -> None:
        if not facts:
            raise NeuralDBError("cannot index zero facts")
        if embed_block <= 0:
            raise NeuralDBError("embed_block must be positive")
        self.facts = list(facts)
        self.embed_block = embed_block
        self.stats = RetrieverStats()
        sample = self._training_sample(self.facts, pretrain_sample)
        self.tokenizer = WhitespaceTokenizer(lowercase=True)
        self.tokenizer.train(sample + self.QUESTION_PHRASES, vocab_size=vocab_size)
        max_len = max(len(self.tokenizer.encode(f).ids) for f in sample) + 4

        config = ModelConfig(
            vocab_size=self.tokenizer.vocab_size,
            max_seq_len=max_len,
            dim=DIM,
            num_layers=2,
            num_heads=2,
            ff_dim=4 * DIM,
            causal=False,
        )
        self.encoder = BERTModel(config, seed=seed)
        pretrain_mlm(
            self.encoder, self.tokenizer, sample,
            steps=pretrain_steps, seq_len=min(max_len, 24), seed=seed,
        )
        self._max_len = max_len
        self._rebuild_index()

    @staticmethod
    def _training_sample(facts: List[str], cap: Optional[int]) -> List[str]:
        """Evenly strided corpus sample — deterministic, covers the span."""
        if cap is None or cap >= len(facts):
            return list(facts)
        if cap <= 0:
            raise NeuralDBError("pretrain_sample must be positive")
        stride = max(1, len(facts) // cap)
        return facts[::stride][:cap]

    # -- index maintenance ---------------------------------------------------
    def _rebuild_index(self) -> None:
        """Re-embed every fact and rebuild postings (build-time only)."""
        vectors = self._embed(self.facts)
        capacity = max(1, len(self.facts))
        self._matrix = np.zeros((capacity, vectors.shape[1]))
        self._matrix[: len(self.facts)] = vectors
        self._alive = np.zeros(capacity, dtype=bool)
        self._alive[: len(self.facts)] = True
        self._used = len(self.facts)
        self._row_fact: List[Optional[str]] = list(self.facts)
        self._rows_by_fact: dict = {}
        self._iindex = InvertedIndex()
        for row, fact in enumerate(self.facts):
            self._rows_by_fact.setdefault(fact, []).append(row)
            self._iindex.add(row, fact)

    def add_fact(self, fact: str) -> None:
        """Insert one fact: embed it alone, index its own tokens — O(1)
        encoder forwards regardless of corpus size."""
        vector = self._embed([fact])[0]
        if self._used == self._matrix.shape[0]:
            grown = np.zeros((2 * self._matrix.shape[0], self._matrix.shape[1]))
            grown[: self._used] = self._matrix[: self._used]
            self._matrix = grown
            alive = np.zeros(grown.shape[0], dtype=bool)
            alive[: self._used] = self._alive[: self._used]
            self._alive = alive
        row = self._used
        self._matrix[row] = vector
        self._alive[row] = True
        self._used += 1
        self._row_fact.append(fact)
        self._rows_by_fact.setdefault(fact, []).append(row)
        self._iindex.add(row, fact)
        self.facts.append(fact)

    def remove_fact(self, fact: str) -> None:
        """Delete one stored copy of ``fact`` by tombstoning its row."""
        rows = self._rows_by_fact.get(fact)
        if not rows:
            raise NeuralDBError(f"fact not stored: {fact!r}")
        row = rows.pop(0)
        if not rows:
            del self._rows_by_fact[fact]
        self._alive[row] = False
        self._row_fact[row] = None
        self._iindex.remove(row)
        self.facts.remove(fact)

    # -- embedding -----------------------------------------------------------
    def _embed(self, texts: Sequence[str]) -> np.ndarray:
        """Normalized pooled embeddings, in ``embed_block``-sized batches."""
        blocks = [
            self._embed_block(texts[start : start + self.embed_block])
            for start in range(0, len(texts), self.embed_block)
        ]
        self.stats.embedded_texts += len(texts)
        return blocks[0] if len(blocks) == 1 else np.vstack(blocks)

    def _embed_block(self, texts: Sequence[str]) -> np.ndarray:
        encodings = [
            self.tokenizer.encode(t, max_length=self._max_len, pad_to=self._max_len)
            for t in texts
        ]
        ids = np.array([e.ids for e in encodings], dtype=np.int64)
        mask = np.array([e.attention_mask for e in encodings], dtype=np.int64)
        # Unknown words carry no signal; keep them out of the pooled
        # representation so rare queries aren't dominated by [UNK].
        unk = self.tokenizer.vocab.unk_id
        informative = mask & (ids != unk)
        empty = informative.sum(axis=1) == 0
        informative[empty] = mask[empty]
        vectors = self.encoder.embed_texts(ids, informative)
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        return vectors / np.maximum(norms, 1e-9)

    # -- retrieval -----------------------------------------------------------
    def retrieve(
        self,
        query: str,
        top_k: int = 3,
        mode: str = "auto",
    ) -> List[Tuple[str, float]]:
        """Top-``top_k`` facts by cosine similarity to ``query``.

        ``mode="dense"`` scores every live fact (exact), ``"two_stage"``
        scores inverted-index candidates only, ``"auto"`` picks dense at
        or below ``DENSE_CUTOFF`` facts and two-stage above. A two-stage
        query whose tokens match no postings falls back to dense rather
        than returning nothing. Ties break toward earlier insertion.
        """
        if mode not in ("auto", "dense", "two_stage"):
            raise NeuralDBError(f"unknown retrieval mode {mode!r}")
        query_vec = self._embed([query])[0]
        if mode == "auto":
            mode = "dense" if len(self.facts) <= DENSE_CUTOFF else "two_stage"
        rows: Optional[np.ndarray] = None
        if mode == "two_stage":
            candidates = self._iindex.candidates(query)
            if candidates:
                rows = np.array(candidates, dtype=np.int64)
            else:
                self.stats.dense_fallbacks += 1
        if rows is None:
            self.stats.dense_queries += 1
            rows = np.flatnonzero(self._alive[: self._used])
        similarities = self._matrix[rows] @ query_vec
        self.stats.facts_scored += len(rows)
        order = np.argsort(-similarities, kind="stable")[:top_k]
        return [
            (self._row_fact[rows[i]], float(similarities[i])) for i in order
        ]

    # -- contrastive fine-tuning (DPR-style) ---------------------------------
    def train_contrastive(
        self,
        qa_pairs: Sequence[Tuple[str, str]],
        steps: int = 120,
        seed: int = 0,
    ) -> "EmbeddingRetriever":
        """Fine-tune the encoder on (question, matching fact) pairs.

        In-batch negatives with an InfoNCE objective — the dual-encoder
        recipe dense retrievers (and NeuralDB's support-set retriever)
        are trained with. Afterwards the fact index is rebuilt (the
        encoder changed, so every stored embedding is stale).
        """
        if not qa_pairs:
            raise NeuralDBError("no training pairs")
        from repro.autograd import Tensor, cross_entropy
        from repro.training.optim import AdamW
        from repro.utils.rng import SeededRNG

        questions = [q for q, _ in qa_pairs]
        positives = [f for _, f in qa_pairs]
        q_ids, q_mask = self._encode_batch(questions)
        f_ids, f_mask = self._encode_batch(positives)

        optimizer = AdamW(self.encoder.parameters(), lr=CONTRASTIVE_LR)
        rng = SeededRNG(seed)
        n = len(qa_pairs)
        for _ in range(steps):
            idx = rng.generator.choice(n, size=min(CONTRASTIVE_BATCH, n), replace=False)
            q_vec = self._pooled_normalized(q_ids[idx], q_mask[idx])
            f_vec = self._pooled_normalized(f_ids[idx], f_mask[idx])
            logits = (q_vec @ f_vec.transpose(1, 0)) * 10.0  # temperature 0.1
            targets = np.arange(len(idx))
            loss = cross_entropy(logits, targets)
            optimizer.zero_grad()
            loss.backward()
            optimizer.clip_grad_norm(1.0)
            optimizer.step()
        self._rebuild_index()
        return self

    def _encode_batch(self, texts: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
        encodings = [
            self.tokenizer.encode(t, max_length=self._max_len, pad_to=self._max_len)
            for t in texts
        ]
        ids = np.array([e.ids for e in encodings], dtype=np.int64)
        mask = np.array([e.attention_mask for e in encodings], dtype=np.int64)
        unk = self.tokenizer.vocab.unk_id
        informative = mask & (ids != unk)
        empty = informative.sum(axis=1) == 0
        informative[empty] = mask[empty]
        return ids, informative

    def _pooled_normalized(self, ids: np.ndarray, mask: np.ndarray):
        pooled = self.encoder.pooled(ids, mask)
        sumsq = (pooled * pooled).sum(axis=-1, keepdims=True)
        return pooled * ((sumsq + 1e-9) ** -0.5)
