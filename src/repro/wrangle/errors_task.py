"""Error detection: flag cells that violate a column's domain."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import WrangleError
from repro.models import BERTModel, ModelConfig, SequenceClassifier
from repro.tokenizers import Tokenizer, WhitespaceTokenizer
from repro.training import LabeledExample, finetune_classifier
from repro.training.metrics import accuracy, precision_recall_f1
from repro.wrangle.data import ErrorDetectionExample
from repro.wrangle.serialize import serialize_record

#: width of the fine-tuned detector's encoder
DIM = 32


class RuleErrorDetector:
    """Oracle-free baseline: learn each category's value domain from the
    *training* data (majority co-occurrence), flag unseen combinations.

    With clean training data this equals the gold functional dependency;
    with noisy training data it inherits the noise — the classic
    constraint-mining trade-off."""

    def __init__(self) -> None:
        self._domains: Dict[str, set] = {}

    def fit(self, examples: Sequence[ErrorDetectionExample]) -> "RuleErrorDetector":
        if not examples:
            raise WrangleError("cannot fit on zero examples")
        for example in examples:
            if not example.erroneous:
                self._domains.setdefault(
                    example.record["category"], set()
                ).add(example.record["value"])
        return self

    def predict(self, example: ErrorDetectionExample) -> bool:
        domain = self._domains.get(example.record["category"])
        if domain is None:
            return True
        return example.record["value"] not in domain


class FinetunedErrorDetector:
    """LM path: fine-tune a small BERT classifier on serialized records."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.tokenizer: Optional[Tokenizer] = None
        self.classifier: Optional[SequenceClassifier] = None
        self._max_len = 0

    def fit(
        self, examples: Sequence[ErrorDetectionExample], epochs: int = 6
    ) -> "FinetunedErrorDetector":
        if not examples:
            raise WrangleError("cannot fit on zero examples")
        texts = [self._text(e) for e in examples]
        tokenizer = WhitespaceTokenizer(lowercase=True)
        tokenizer.train(texts, vocab_size=512)
        self._max_len = max(len(tokenizer.encode(t).ids) for t in texts) + 2

        config = ModelConfig(
            vocab_size=tokenizer.vocab_size,
            max_seq_len=self._max_len,
            dim=DIM,
            num_layers=2,
            num_heads=2,
            ff_dim=4 * DIM,
            causal=False,
        )
        classifier = SequenceClassifier(BERTModel(config, seed=self.seed), 2, seed=self.seed)
        labeled = [
            LabeledExample(text=t, label=int(e.erroneous))
            for t, e in zip(texts, examples)
        ]
        finetune_classifier(
            classifier, tokenizer, labeled,
            epochs=epochs, lr=2e-3, max_length=self._max_len, seed=self.seed,
        )
        self.tokenizer = tokenizer
        self.classifier = classifier
        return self

    def predict(self, example: ErrorDetectionExample) -> bool:
        if self.classifier is None or self.tokenizer is None:
            raise WrangleError("detector is not fitted")
        encoding = self.tokenizer.encode(
            self._text(example), max_length=self._max_len, pad_to=self._max_len
        )
        prediction = self.classifier.predict(
            np.array([encoding.ids]), np.array([encoding.attention_mask])
        )
        return bool(prediction[0] == 1)

    @staticmethod
    def _text(example: ErrorDetectionExample) -> str:
        record = {k: v for k, v in example.record.items() if k != "id"}
        return serialize_record(record)


def evaluate_detector(detector, examples: Sequence[ErrorDetectionExample]) -> Dict[str, float]:
    """Precision/recall/F1/accuracy of an error detector."""
    predictions = [int(detector.predict(e)) for e in examples]
    labels = [int(e.erroneous) for e in examples]
    precision, recall, f1 = precision_recall_f1(predictions, labels)
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "accuracy": accuracy(predictions, labels),
    }
