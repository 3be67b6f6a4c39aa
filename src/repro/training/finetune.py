"""Supervised fine-tuning of a pre-trained backbone (Section 2.3).

Fine-tuning specializes a pre-trained model with a small task head and a
handful of labeled examples; thanks to transfer learning, this needs far
less data than training from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import cross_entropy
from repro.errors import TrainingError
from repro.models.heads import SequenceClassifier
from repro.tokenizers import Tokenizer
from repro.training.data import LabeledExample
from repro.training.metrics import accuracy
from repro.training.optim import AdamW
from repro.utils.rng import SeededRNG

#: minibatch size of :func:`finetune_classifier`
BATCH_SIZE = 8


@dataclass
class FinetuneReport:
    """Loss trajectory of a fine-tuning run plus final train accuracy."""

    epochs: int
    losses: List[float] = field(default_factory=list)
    train_accuracy: float = 0.0


def encode_examples(
    tokenizer: Tokenizer,
    examples: Sequence[LabeledExample],
    max_length: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encode texts to fixed-length (ids, attention_mask, labels) arrays."""
    if not examples:
        raise TrainingError("no examples to encode")
    encodings = [
        tokenizer.encode(ex.text, max_length=max_length, pad_to=max_length)
        for ex in examples
    ]
    ids = np.array([e.ids for e in encodings], dtype=np.int64)
    mask = np.array([e.attention_mask for e in encodings], dtype=np.int64)
    labels = np.array([ex.label for ex in examples], dtype=np.int64)
    return ids, mask, labels


def finetune_classifier(
    classifier: SequenceClassifier,
    tokenizer: Tokenizer,
    examples: Sequence[LabeledExample],
    epochs: int = 5,
    lr: float = 1e-3,
    max_length: Optional[int] = None,
    seed: int = 0,
) -> FinetuneReport:
    """Fine-tune ``classifier`` end-to-end on labeled text examples."""
    max_length = max_length or classifier.backbone.config.max_seq_len
    ids, mask, labels = encode_examples(tokenizer, examples, max_length)
    rng = SeededRNG(seed)
    optimizer = AdamW(classifier.parameters(), lr=lr)
    report = FinetuneReport(epochs=epochs)

    n = len(examples)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, BATCH_SIZE):
            idx = order[start: start + BATCH_SIZE]
            logits = classifier(ids[idx], mask[idx])
            loss = cross_entropy(logits, labels[idx])
            optimizer.zero_grad()
            loss.backward()
            optimizer.clip_grad_norm(1.0)
            optimizer.step()
            report.losses.append(loss.item())

    predictions = classifier.predict(ids, mask)
    report.train_accuracy = accuracy(predictions, labels)
    return report


def evaluate_classifier(
    classifier: SequenceClassifier,
    tokenizer: Tokenizer,
    examples: Sequence[LabeledExample],
) -> float:
    """Return held-out accuracy of a fine-tuned classifier."""
    max_length = classifier.backbone.config.max_seq_len
    ids, mask, labels = encode_examples(tokenizer, examples, max_length)
    predictions = classifier.predict(ids, mask)
    return accuracy(predictions, labels)
