"""Text predicates: given a description, classify strings as matching.

Two implementations back the ``NL(column, 'description')`` operator:

* :class:`KeywordPredicate` — matches when any description keyword
  occurs in the text (the heuristic a non-LM system would use);
* :class:`FinetunedPredicate` — a fine-tuned encoder classifier
  (the LM operator the tutorial motivates).
"""

from __future__ import annotations

from typing import Dict, List, Protocol, Tuple

import numpy as np

from repro.models import BERTModel, ModelConfig, SequenceClassifier
from repro.sql import Database
from repro.tokenizers import Tokenizer, WhitespaceTokenizer
from repro.training import LabeledExample, finetune_classifier
from repro.utils.rng import SeededRNG
from repro.utils.text import simple_word_tokenize

#: width of the sentiment classifier behind :func:`train_review_predicate`
DIM = 32


class TextPredicate(Protocol):
    """Decides whether a text satisfies a natural-language description."""

    def matches(self, text: str, description: str) -> bool:
        ...


class KeywordPredicate:
    """Baseline: the text matches if it shares a content word with the
    description (stop words removed)."""

    STOP_WORDS = {"the", "a", "an", "is", "are", "was", "review", "text",
                  "this", "it", "of", "in", "very"}

    def matches(self, text: str, description: str) -> bool:
        description_words = {
            w for w in simple_word_tokenize(description.lower())
            if w.isalpha() and w not in self.STOP_WORDS
        }
        text_words = set(simple_word_tokenize(text.lower()))
        return bool(description_words & text_words)


# -- synthetic review corpus ---------------------------------------------------
_POSITIVE_PHRASES = [
    "works great and arrived quickly",
    "excellent build quality , totally worth it",
    "my favorite purchase this year , love it",
    "fantastic value , exceeded expectations",
    "superb performance , highly recommended",
    "delightful to use every day",
]
_NEGATIVE_PHRASES = [
    "broke after two days , very disappointing",
    "terrible quality , asked for a refund",
    "arrived damaged and support ignored me",
    "waste of money , do not buy",
    "awful experience , it never worked",
    "flimsy and unreliable , regret buying it",
]
_PRODUCTS = ["keyboard", "monitor", "router", "webcam", "headset", "speaker"]


def generate_review_table(
    num_rows: int = 30, seed: int = 0
) -> Tuple[Database, Dict[int, bool]]:
    """A products table with a ``review`` TEXT column.

    Returns the database plus the gold ``row id -> positive?`` map for
    evaluation.
    """
    rng = SeededRNG(seed)
    db = Database()
    db.execute("CREATE TABLE products (id INT, name TEXT, review TEXT)")
    gold: Dict[int, bool] = {}
    for i in range(num_rows):
        positive = i % 2 == 0
        phrase = rng.choice(_POSITIVE_PHRASES if positive else _NEGATIVE_PHRASES)
        review = f"the {rng.choice(_PRODUCTS)} {phrase}"
        gold[i] = positive
        escaped = review.replace("'", "''")
        db.execute(
            f"INSERT INTO products VALUES ({i}, '{rng.choice(_PRODUCTS)}', '{escaped}')"
        )
    return db, gold


def _training_reviews(seed: int) -> List[LabeledExample]:
    """30 positive and 30 negative product reviews, interleaved."""
    rng = SeededRNG(seed)
    examples: List[LabeledExample] = []
    for i in range(30):
        examples.append(
            LabeledExample(
                text=f"the {rng.choice(_PRODUCTS)} {rng.choice(_POSITIVE_PHRASES)}",
                label=1,
            )
        )
        examples.append(
            LabeledExample(
                text=f"the {rng.choice(_PRODUCTS)} {rng.choice(_NEGATIVE_PHRASES)}",
                label=0,
            )
        )
    return examples


class FinetunedPredicate:
    """An LM text classifier behind the ``NL`` operator.

    One classifier handles one predicate family (here: sentiment); the
    description selects the polarity ("positive" vs "negative").
    """

    def __init__(
        self, classifier: SequenceClassifier, tokenizer: Tokenizer, max_len: int
    ) -> None:
        self._classifier = classifier
        self._tokenizer = tokenizer
        self._max_len = max_len

    def matches(self, text: str, description: str) -> bool:
        wants_positive = "positive" in description.lower() or (
            "negative" not in description.lower()
        )
        encoding = self._tokenizer.encode(
            text, max_length=self._max_len, pad_to=self._max_len
        )
        prediction = self._classifier.predict(
            np.array([encoding.ids]), np.array([encoding.attention_mask])
        )
        is_positive = bool(prediction[0] == 1)
        return is_positive if wants_positive else not is_positive


def train_review_predicate(epochs: int = 8, seed: int = 0) -> FinetunedPredicate:
    """Fine-tune the sentiment classifier backing the NL operator."""
    examples = _training_reviews(seed=seed + 1)
    texts = [e.text for e in examples]
    tokenizer = WhitespaceTokenizer(lowercase=True)
    tokenizer.train(texts, vocab_size=512)
    max_len = max(len(tokenizer.encode(t).ids) for t in texts) + 2

    config = ModelConfig(
        vocab_size=tokenizer.vocab_size, max_seq_len=max_len, dim=DIM,
        num_layers=2, num_heads=2, ff_dim=4 * DIM, causal=False,
    )
    classifier = SequenceClassifier(BERTModel(config, seed=seed), 2, seed=seed)
    finetune_classifier(
        classifier, tokenizer, examples,
        epochs=epochs, lr=2e-3, max_length=max_len, seed=seed,
    )
    return FinetunedPredicate(classifier=classifier, tokenizer=tokenizer, max_len=max_len)
