"""Data imputation: restore a hidden categorical value from the record."""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    TransientError,
    WrangleError,
)
from repro.serving import engine_serving_stats
from repro.utils.rng import SeededRNG
from repro.models import BERTModel, ModelConfig, SequenceClassifier
from repro.tokenizers import Tokenizer, WhitespaceTokenizer
from repro.training import LabeledExample, finetune_classifier
from repro.wrangle.data import ImputationExample
from repro.wrangle.serialize import serialize_record

#: width of the fine-tuned imputer's encoder
DIM = 32


class MajorityImputer:
    """Baseline: always predict the most frequent training value."""

    def __init__(self) -> None:
        self._majority: Optional[str] = None

    def fit(self, examples: Sequence[ImputationExample]) -> "MajorityImputer":
        if not examples:
            raise WrangleError("cannot fit on zero examples")
        counts = Counter(e.target_value for e in examples)
        self._majority = counts.most_common(1)[0][0]
        return self

    def predict(self, example: ImputationExample) -> str:
        if self._majority is None:
            raise WrangleError("imputer is not fitted")
        return self._majority


class FinetunedImputer:
    """LM path: classify the hidden value from the serialized record."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.classes: List[str] = []
        self.tokenizer: Optional[Tokenizer] = None
        self.classifier: Optional[SequenceClassifier] = None
        self._max_len = 0

    def fit(
        self, examples: Sequence[ImputationExample], epochs: int = 6
    ) -> "FinetunedImputer":
        if not examples:
            raise WrangleError("cannot fit on zero examples")
        self.classes = sorted({e.target_value for e in examples})
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
        classifier = SequenceClassifier(
            BERTModel(config, seed=self.seed), len(self.classes), seed=self.seed
        )
        labeled = [
            LabeledExample(text=t, label=self.classes.index(e.target_value))
            for t, e in zip(texts, examples)
        ]
        finetune_classifier(
            classifier, tokenizer, labeled,
            epochs=epochs, lr=2e-3, max_length=self._max_len, seed=self.seed,
        )
        self.tokenizer = tokenizer
        self.classifier = classifier
        return self

    def predict(self, example: ImputationExample) -> str:
        if self.classifier is None or self.tokenizer is None:
            raise WrangleError("imputer is not fitted")
        encoding = self.tokenizer.encode(
            self._text(example), max_length=self._max_len, pad_to=self._max_len
        )
        prediction = self.classifier.predict(
            np.array([encoding.ids]), np.array([encoding.attention_mask])
        )
        return self.classes[int(prediction[0])]

    @staticmethod
    def _text(example: ImputationExample) -> str:
        visible = {
            k: v for k, v in example.record.items()
            if k not in ("id", example.target_column)
        }
        return serialize_record(visible)


class ClientImputer:
    """Few-shot imputation over the (possibly unreliable) API channel.

    Builds a k-shot prompt of worked records and asks a completion
    engine for the hidden value — the zero-training recipe of Narayan et
    al. applied through the remote channel. ``client`` is anything with
    the ``CompletionClient.complete`` interface; with a
    :class:`~repro.reliability.ResilientClient` the task survives rate
    limits and transient errors. Terminal serving failures *and*
    completions that name no known class degrade to the majority
    baseline (never an exception); ``degraded`` and ``fallbacks`` count
    the two cases separately.
    """

    def __init__(
        self, client, engine: str, shots: int = 4, seed: int = 0
    ) -> None:
        self.client = client
        self.engine = engine
        self.shots = shots
        self.seed = seed
        self.classes: List[str] = []
        self._shot_examples: List[ImputationExample] = []
        self._fallback: Optional[MajorityImputer] = None
        #: predictions answered by the majority baseline after a
        #: terminal serving failure
        self.degraded = 0
        #: predictions answered by the majority baseline because the
        #: completion named no known class
        self.fallbacks = 0

    def fit(self, examples: Sequence[ImputationExample]) -> "ClientImputer":
        if not examples:
            raise WrangleError("cannot fit on zero examples")
        self._fallback = MajorityImputer().fit(examples)
        self.classes = sorted({e.target_value for e in examples})
        rng = SeededRNG(self.seed).spawn("shots")
        self._shot_examples = rng.sample(
            list(examples), min(self.shots, len(examples))
        )
        return self

    def _prompt(self, example: ImputationExample) -> str:
        lines = [
            f"record : {self._text(shot)} ; {shot.target_column} : "
            f"{shot.target_value}"
            for shot in self._shot_examples
        ]
        lines.append(
            f"record : {self._text(example)} ; {example.target_column} :"
        )
        return " \n ".join(lines)

    def predict(self, example: ImputationExample) -> str:
        if self._fallback is None:
            raise WrangleError("imputer is not fitted")
        try:
            response = self.client.complete(
                self.engine, self._prompt(example), max_tokens=3, stop=[";"]
            )
        except (TransientError, DeadlineExceededError, CircuitOpenError):
            self.degraded += 1
            return self._fallback.predict(example)
        return self._accept(example, response)

    def predict_batch(self, examples: Sequence[ImputationExample]) -> List[str]:
        """Impute many records through one batched serving call.

        Clients exposing ``complete_batch`` serve every record in
        vectorized microbatches; anything else — and a terminal serving
        failure on the batched call — transparently degrades to the
        per-record :meth:`predict` path, preserving its no-raise
        contract.
        """
        if self._fallback is None:
            raise WrangleError("imputer is not fitted")
        examples = list(examples)
        prompts = [self._prompt(example) for example in examples]
        try:
            responses = self.client.complete_batch(
                self.engine, prompts, max_tokens=3, stop=[";"]
            )
        except (TransientError, DeadlineExceededError, CircuitOpenError):
            return [self.predict(example) for example in examples]
        return [
            self._accept(example, response)
            for example, response in zip(examples, responses)
        ]

    def serving_stats(self) -> dict:
        """Prefix-cache / batching counters for this imputer's engine.

        Every few-shot prompt repeats the same shot block and differs
        only in the final record, so across a table the engine's prefix
        cache absorbs nearly all of the prefill.
        """
        return engine_serving_stats(self.client, self.engine)

    def _accept(self, example: ImputationExample, response) -> str:
        """Map one completion to a known class, or the majority answer."""
        words = response.text.split()
        guess = words[0].lower() if words else ""
        for value in self.classes:
            if value.lower() == guess:
                return value
        self.fallbacks += 1
        return self._fallback.predict(example)

    @staticmethod
    def _text(example: ImputationExample) -> str:
        visible = {
            k: v for k, v in example.record.items()
            if k not in ("id", example.target_column)
        }
        return serialize_record(visible)


def evaluate_imputer(imputer, examples: Sequence[ImputationExample]) -> float:
    """Exact-match accuracy of an imputer.

    Imputers exposing ``predict_batch`` (e.g. :class:`ClientImputer`)
    are scored from one batched serving call over all records.
    """
    predict_batch = getattr(imputer, "predict_batch", None)
    if predict_batch is not None:
        predictions = list(predict_batch(examples))
    else:
        predictions = [imputer.predict(e) for e in examples]
    labels = [e.target_value for e in examples]
    return sum(p == l for p, l in zip(predictions, labels)) / len(examples)
