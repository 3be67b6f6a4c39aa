"""Correlation prediction from column names: LM vs token overlap."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ReproError
from repro.models import BERTModel, ModelConfig
from repro.nn import Linear, Module
from repro.profiling.corpus import ColumnPair
from repro.tokenizers import Tokenizer, WhitespaceTokenizer
from repro.training.metrics import accuracy, precision_recall_f1
from repro.utils.rng import SeededRNG

#: classifier encoder width and learning rate
DIM, LR = 32, 2e-3


class TokenOverlapBaseline:
    """Predict correlated iff the names share a non-numeric token."""

    def probability(self, pair: ColumnPair) -> float:
        left = {t for t in pair.left_name.split("_") if not t.isdigit()}
        right = {t for t in pair.right_name.split("_") if not t.isdigit()}
        return 1.0 if left & right else 0.0

    def predict(self, pair: ColumnPair) -> bool:
        return self.probability(pair) >= 0.5


class _PairHead(Module):
    """Siamese head: classify from the elementwise product ``u * v``.

    A linear layer over ``u * v`` realizes a diagonal bilinear form
    ``u^T diag(w) v`` — enough to represent "the two names denote the
    same concept" once fine-tuning aligns synonym embeddings, and far
    more sample-efficient than a cross-encoder on a pooled bag.
    """

    def __init__(self, backbone: BERTModel, seed: int = 0) -> None:
        super().__init__()
        self.backbone = backbone
        self.head = Linear(backbone.config.dim, 2, SeededRNG(seed).spawn("pair"))

    def forward(self, left, right):
        left_ids, left_mask = left
        right_ids, right_mask = right
        u = self.backbone.pooled(left_ids, left_mask)
        v = self.backbone.pooled(right_ids, right_mask)
        return self.head(u * v)


class NamePairClassifier:
    """Siamese encoder over the two column names (LM path)."""

    def __init__(self, head: _PairHead, tokenizer: Tokenizer, max_len: int) -> None:
        self._head = head
        self._tokenizer = tokenizer
        self._max_len = max_len

    def _encode(self, name: str):
        text = name.replace("_", " ")
        encoding = self._tokenizer.encode(
            text, max_length=self._max_len, pad_to=self._max_len
        )
        return (
            np.array([encoding.ids], dtype=np.int64),
            np.array([encoding.attention_mask], dtype=np.int64),
        )

    def probability(self, pair: ColumnPair) -> float:
        from repro.autograd import no_grad

        with no_grad():
            logits = self._head(
                self._encode(pair.left_name), self._encode(pair.right_name)
            )
        row = logits.data[0]
        exp = np.exp(row - row.max())
        return float(exp[1] / exp.sum())

    def predict(self, pair: ColumnPair) -> bool:
        return self.probability(pair) >= 0.5


def train_name_pair_classifier(
    train_pairs: Sequence[ColumnPair],
    epochs: int = 12,
    seed: int = 0,
) -> NamePairClassifier:
    """Train the siamese name-pair classifier (balanced sampling)."""
    if not train_pairs:
        raise ReproError("no training pairs")
    from repro.autograd import cross_entropy
    from repro.training.optim import AdamW
    from repro.utils.rng import SeededRNG as RNG

    names = sorted(
        {p.left_name.replace("_", " ") for p in train_pairs}
        | {p.right_name.replace("_", " ") for p in train_pairs}
    )
    tokenizer = WhitespaceTokenizer(lowercase=True)
    tokenizer.train(names, vocab_size=1024)
    max_len = max(len(tokenizer.encode(n).ids) for n in names) + 1

    config = ModelConfig(
        vocab_size=tokenizer.vocab_size, max_seq_len=max_len, dim=DIM,
        num_layers=1, num_heads=2, ff_dim=4 * DIM, causal=False,
    )
    head = _PairHead(BERTModel(config, seed=seed), seed=seed)
    classifier = NamePairClassifier(head=head, tokenizer=tokenizer, max_len=max_len)

    # Oversample positives to a balanced training stream.
    positives = [p for p in train_pairs if p.correlated]
    negatives = [p for p in train_pairs if not p.correlated]
    if not positives or not negatives:
        raise ReproError("training pairs must contain both classes")

    def encode_batch(pairs: List[ColumnPair]):
        left_ids = np.concatenate([classifier._encode(p.left_name)[0] for p in pairs])
        left_mask = np.concatenate([classifier._encode(p.left_name)[1] for p in pairs])
        right_ids = np.concatenate([classifier._encode(p.right_name)[0] for p in pairs])
        right_mask = np.concatenate([classifier._encode(p.right_name)[1] for p in pairs])
        labels = np.array([int(p.correlated) for p in pairs], dtype=np.int64)
        return (left_ids, left_mask), (right_ids, right_mask), labels

    rng = RNG(seed)
    optimizer = AdamW(head.parameters(), lr=LR)
    steps_per_epoch = max(len(train_pairs) // 16, 1)
    for _ in range(epochs):
        for _ in range(steps_per_epoch):
            batch = rng.sample(positives, min(8, len(positives)))
            batch += rng.sample(negatives, min(8, len(negatives)))
            left, right, labels = encode_batch(batch)
            logits = head(left, right)
            loss = cross_entropy(logits, labels)
            optimizer.zero_grad()
            loss.backward()
            optimizer.clip_grad_norm(1.0)
            optimizer.step()
    return classifier


def evaluate_predictor(predictor, pairs: Sequence[ColumnPair]) -> Dict[str, float]:
    """Precision/recall/F1/accuracy against the gold labels."""
    predictions = [int(predictor.predict(p)) for p in pairs]
    labels = [int(p.correlated) for p in pairs]
    precision, recall, f1 = precision_recall_f1(predictions, labels)
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "accuracy": accuracy(predictions, labels),
    }
