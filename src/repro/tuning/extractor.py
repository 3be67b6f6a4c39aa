"""Hint extraction from manual text: regex baseline vs fine-tuned LM.

The regex extractor implements the obvious pattern (``set <knob> to
<value>``) and therefore only finds transparently phrased hints. The LM
extractor classifies each sentence's *target knob* (or filler) with a
fine-tuned encoder — paraphrases like "allocate 2048 mb to the page
cache" resolve to ``buffer_pool_mb`` — and then pulls the value out of
the sentence, which is how DB-BERT reads real manuals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import TuningError
from repro.models import BERTModel, ModelConfig, SequenceClassifier
from repro.tokenizers import Tokenizer, WhitespaceTokenizer
from repro.training import LabeledExample, finetune_classifier
from repro.tuning.manuals import ManualSentence
from repro.tuning.simulator import DBMSConfig

#: width of the knob classifier behind :func:`train_lm_extractor`
DIM = 32


@dataclass(frozen=True)
class Hint:
    """One extracted recommendation."""

    knob: str
    value: int
    source: str  # the sentence it came from


_SET_RE = re.compile(
    r"set\s+([a-z_]+)\s+to\s+(\d+|on|off)", re.IGNORECASE
)
_NUMBER_RE = re.compile(r"\d+")


def _parse_value(raw: str) -> int:
    if raw.lower() == "on":
        return 1
    if raw.lower() == "off":
        return 0
    return int(raw)


class RegexHintExtractor:
    """Baseline: only the transparent ``set <knob> to <value>`` shape."""

    def extract(self, sentences: Sequence[ManualSentence]) -> List[Hint]:
        hints: List[Hint] = []
        for sentence in sentences:
            match = _SET_RE.search(sentence.text)
            if not match:
                continue
            knob = match.group(1).lower()
            if knob not in DBMSConfig.KNOBS:
                continue
            hints.append(
                Hint(knob=knob, value=_parse_value(match.group(2)), source=sentence.text)
            )
        return hints


# Class layout for the LM extractor: 0 = filler, 1.. = knob index.
_CLASSES = ["none"] + list(DBMSConfig.KNOBS)


class LMHintExtractor:
    """Fine-tuned sentence classifier (knob or filler) + value parsing."""

    def __init__(self, classifier: SequenceClassifier, tokenizer: Tokenizer, max_len: int) -> None:
        self._classifier = classifier
        self._tokenizer = tokenizer
        self._max_len = max_len

    def classify(self, sentence: ManualSentence) -> str:
        encoding = self._tokenizer.encode(
            sentence.text, max_length=self._max_len, pad_to=self._max_len
        )
        prediction = self._classifier.predict(
            np.array([encoding.ids]), np.array([encoding.attention_mask])
        )
        return _CLASSES[int(prediction[0])]

    def extract(self, sentences: Sequence[ManualSentence]) -> List[Hint]:
        hints: List[Hint] = []
        for sentence in sentences:
            knob = self.classify(sentence)
            if knob == "none":
                continue
            value = self._extract_value(sentence.text, knob)
            if value is None:
                continue
            hints.append(Hint(knob=knob, value=value, source=sentence.text))
        return hints

    @staticmethod
    def _extract_value(text: str, knob: str) -> Optional[int]:
        if knob == "compression":
            if "off" in text or "disable" in text:
                return 0
            return 1
        numbers = _NUMBER_RE.findall(text)
        return int(numbers[0]) if numbers else None


def train_lm_extractor(
    train_sentences: Sequence[ManualSentence],
    epochs: int = 10,
    seed: int = 0,
) -> LMHintExtractor:
    """Fine-tune the knob classifier on labeled manual sentences."""
    if not train_sentences:
        raise TuningError("no training sentences")
    texts = [s.text for s in train_sentences]
    tokenizer = WhitespaceTokenizer(lowercase=True)
    tokenizer.train(texts, vocab_size=1024)
    max_len = max(len(tokenizer.encode(t).ids) for t in texts) + 2

    config = ModelConfig(
        vocab_size=tokenizer.vocab_size,
        max_seq_len=max_len,
        dim=DIM,
        num_layers=2,
        num_heads=2,
        ff_dim=4 * DIM,
        causal=False,
    )
    classifier = SequenceClassifier(
        BERTModel(config, seed=seed), num_classes=len(_CLASSES), seed=seed
    )
    examples = [
        LabeledExample(
            text=s.text,
            label=_CLASSES.index(s.knob) if s.knob else 0,
        )
        for s in train_sentences
    ]
    finetune_classifier(
        classifier, tokenizer, examples,
        epochs=epochs, lr=2e-3, max_length=max_len, seed=seed,
    )
    return LMHintExtractor(classifier=classifier, tokenizer=tokenizer, max_len=max_len)
