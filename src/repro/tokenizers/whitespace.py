"""A whitespace/word tokenizer for controlled experiments.

Synthetic-language experiments (e.g. the text-to-SQL grammar workloads)
use a closed vocabulary where subword splitting would only add noise;
this tokenizer assigns one id per whole word.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Sequence

from repro.errors import TokenizerError
from repro.tokenizers.base import Tokenizer
from repro.utils.text import simple_word_tokenize


class WhitespaceTokenizer(Tokenizer):
    """Word-level tokenizer with an optional frequency cutoff."""

    def __init__(self, lowercase: bool = False) -> None:
        super().__init__()
        self.lowercase = lowercase

    def train(self, corpus: Sequence[str], vocab_size: int = 10_000) -> None:
        """Collect the ``vocab_size`` most frequent words from ``corpus``."""
        if not corpus:
            raise TokenizerError("cannot train on an empty corpus")
        freq: Counter[str] = Counter()
        for doc in corpus:
            freq.update(self._words(doc))
        budget = vocab_size - len(self.vocab)
        ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
        self.vocab.add_all(token for token, _ in ranked[: max(budget, 0)])
        self._trained = True

    def _words(self, text: str) -> List[str]:
        if self.lowercase:
            text = text.lower()
        return simple_word_tokenize(text)

    def _tokenize(self, text: str) -> List[str]:
        return self._words(text)

    def _detokenize(self, tokens: List[str]) -> str:
        return " ".join(tokens)
