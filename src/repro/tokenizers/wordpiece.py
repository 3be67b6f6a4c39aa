"""WordPiece tokenization, the subword scheme used by BERT.

Training selects subwords by frequency (a practical simplification of the
likelihood criterion); encoding uses the standard greedy longest-match-
first algorithm with the ``##`` continuation prefix.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Sequence

from repro.errors import TokenizerError
from repro.tokenizers.base import Tokenizer
from repro.tokenizers.vocab import UNK
from repro.utils.text import simple_word_tokenize

CONTINUATION = "##"


class WordPieceTokenizer(Tokenizer):
    """Trainable WordPiece tokenizer (BERT-style, lowercasing)."""

    def __init__(self, lowercase: bool = True, max_subword_len: int = 12) -> None:
        super().__init__()
        self.lowercase = lowercase
        self.max_subword_len = max_subword_len

    def train(self, corpus: Sequence[str], vocab_size: int = 512) -> None:
        """Build the subword inventory from ``corpus``.

        All single characters seen in training are always included, so
        encoding can never fail on characters seen during training; truly
        unseen characters map to ``[UNK]``.
        """
        if not corpus:
            raise TokenizerError("cannot train WordPiece on an empty corpus")
        word_freq: Counter[str] = Counter()
        for doc in corpus:
            for word in self._pre_tokenize(doc):
                word_freq[word] += 1

        # Always include single characters (word-initial and continuation).
        char_tokens: set[str] = set()
        for word in word_freq:
            char_tokens.add(word[0])
            for ch in word[1:]:
                char_tokens.add(CONTINUATION + ch)
        self.vocab.add_all(sorted(char_tokens))

        # Score every substring by the frequency mass of words containing it.
        substring_freq: Counter[str] = Counter()
        for word, freq in word_freq.items():
            seen: set[str] = set()
            for start in range(len(word)):
                for end in range(start + 2, min(len(word), start + self.max_subword_len) + 1):
                    piece = word[start:end]
                    token = piece if start == 0 else CONTINUATION + piece
                    if token not in seen:
                        substring_freq[token] += freq
                        seen.add(token)

        budget = vocab_size - len(self.vocab)
        ranked = sorted(substring_freq.items(), key=lambda kv: (-kv[1], kv[0]))
        for token, freq in ranked[: max(budget, 0)]:
            if freq >= 2:
                self.vocab.add(token)
        self._trained = True

    def _pre_tokenize(self, text: str) -> List[str]:
        if self.lowercase:
            text = text.lower()
        return simple_word_tokenize(text)

    def _tokenize(self, text: str) -> List[str]:
        tokens: List[str] = []
        for word in self._pre_tokenize(text):
            tokens.extend(self._wordpiece(word))
        return tokens

    def _wordpiece(self, word: str) -> List[str]:
        """Greedy longest-match-first subword split of one word."""
        pieces: List[str] = []
        start = 0
        while start < len(word):
            end = len(word)
            found: Optional[str] = None
            while end > start:
                piece = word[start:end]
                token = piece if start == 0 else CONTINUATION + piece
                if token in self.vocab:
                    found = token
                    break
                end -= 1
            if found is None:
                return [UNK]
            pieces.append(found)
            start = end
        return pieces

    def _detokenize(self, tokens: List[str]) -> str:
        parts: List[str] = []
        for token in tokens:
            if token.startswith(CONTINUATION):
                if parts:
                    parts[-1] += token[len(CONTINUATION):]
                else:
                    parts.append(token[len(CONTINUATION):])
            else:
                parts.append(token)
        return " ".join(parts)
