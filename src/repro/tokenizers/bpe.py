"""Byte-pair encoding, the subword scheme behind the GPT model family.

The trainer follows Sennrich-style BPE: start from characters, repeatedly
merge the most frequent adjacent pair, record the merge order. Encoding
replays merges by priority. A word-boundary marker (``Ġ`` in GPT-2;
we use a leading ``▁`` like SentencePiece for readability) preserves
spacing so that ``decode(encode(x)) == normalize(x)``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Tuple

from repro.errors import TokenizerError
from repro.tokenizers.base import Tokenizer
from repro.utils.text import normalize_whitespace

WORD_BOUNDARY = "▁"  # '▁' marks the start of a space-prefixed word

#: cap on the per-word merge memo — natural-language word frequency is
#: Zipfian, so a bounded cache still absorbs nearly every lookup
_WORD_CACHE_LIMIT = 65536


def _word_to_symbols(word: str) -> Tuple[str, ...]:
    """Split a (boundary-marked) word into single-character symbols."""
    if word.startswith(WORD_BOUNDARY):
        rest = word[len(WORD_BOUNDARY):]
        if not rest:
            return (WORD_BOUNDARY,)
        return (WORD_BOUNDARY + rest[0],) + tuple(rest[1:])
    return tuple(word)


class BPETokenizer(Tokenizer):
    """Trainable byte-pair-encoding tokenizer (GPT-style)."""

    def __init__(self) -> None:
        super().__init__()
        self.merges: Dict[Tuple[str, str], int] = {}
        # Memoized merge results per word: encoding is dominated by the
        # quadratic merge replay, and real text repeats words endlessly.
        # Invalidated by train(), which changes the merge table.
        self._word_cache: Dict[str, Tuple[str, ...]] = {}

    # -- training ---------------------------------------------------------
    def train(self, corpus: Sequence[str], vocab_size: int = 512) -> None:
        """Learn merges from ``corpus`` until the vocab reaches ``vocab_size``.

        The corpus is a sequence of documents. Training is deterministic:
        ties in pair frequency break on lexicographic pair order.
        """
        if not corpus:
            raise TokenizerError("cannot train BPE on an empty corpus")
        self._word_cache.clear()  # stale merges must not leak across retrains
        word_freq: Counter[Tuple[str, ...]] = Counter()
        for doc in corpus:
            for word in self._pre_tokenize(doc):
                word_freq[_word_to_symbols(word)] += 1

        # Seed the vocabulary with all single symbols, both in boundary
        # ("▁a") and bare ("a") form, so any word composed of seen
        # characters stays encodable even if that exact shape never
        # occurred in training (the byte-level-BPE coverage guarantee).
        for symbols in word_freq:
            self.vocab.add_all(symbols)
            for symbol in symbols:
                bare = symbol[len(WORD_BOUNDARY):] if symbol.startswith(WORD_BOUNDARY) else symbol
                if bare:
                    self.vocab.add(bare)
                    self.vocab.add(WORD_BOUNDARY + bare)

        words = dict(word_freq)
        merge_rank = 0
        while len(self.vocab) < vocab_size:
            pair_freq: Counter[Tuple[str, str]] = Counter()
            for symbols, freq in words.items():
                for left, right in zip(symbols, symbols[1:]):
                    pair_freq[(left, right)] += freq
            if not pair_freq:
                break
            best_count = max(pair_freq.values())
            best_pair = min(p for p, c in pair_freq.items() if c == best_count)
            if best_count < 2:
                break
            self.merges[best_pair] = merge_rank
            merge_rank += 1
            self.vocab.add(best_pair[0] + best_pair[1])
            words = {
                self._apply_merge(symbols, best_pair): freq
                for symbols, freq in words.items()
            }
        self._trained = True

    @staticmethod
    def _apply_merge(
        symbols: Tuple[str, ...], pair: Tuple[str, str]
    ) -> Tuple[str, ...]:
        """Replace every adjacent occurrence of ``pair`` with its merge."""
        merged: List[str] = []
        i = 0
        while i < len(symbols):
            if (
                i + 1 < len(symbols)
                and symbols[i] == pair[0]
                and symbols[i + 1] == pair[1]
            ):
                merged.append(pair[0] + pair[1])
                i += 2
            else:
                merged.append(symbols[i])
                i += 1
        return tuple(merged)

    # -- encoding -------------------------------------------------------------
    @staticmethod
    def _pre_tokenize(text: str) -> List[str]:
        """Split text on whitespace, marking word starts with ``▁``."""
        words = normalize_whitespace(text).split(" ")
        return [WORD_BOUNDARY + w for w in words if w]

    def _tokenize(self, text: str) -> List[str]:
        tokens: List[str] = []
        for word in self._pre_tokenize(text):
            tokens.extend(self._bpe_word(word))
        return tokens

    def _bpe_word(self, word: str) -> List[str]:
        """Apply learned merges (lowest rank first) to a single word.

        Results are memoized per word (bounded, cleared on retrain):
        merge replay is quadratic in word length but text repeats the
        same words, so the common case is one dict hit.
        """
        cached = self._word_cache.get(word)
        if cached is not None:
            return list(cached)
        symbols = list(_word_to_symbols(word))
        while len(symbols) > 1:
            candidates = [
                (self.merges[(a, b)], i)
                for i, (a, b) in enumerate(zip(symbols, symbols[1:]))
                if (a, b) in self.merges
            ]
            if not candidates:
                break
            _, i = min(candidates)
            symbols[i: i + 2] = [symbols[i] + symbols[i + 1]]
        if len(self._word_cache) < _WORD_CACHE_LIMIT:
            self._word_cache[word] = tuple(symbols)
        return symbols

    def _detokenize(self, tokens: List[str]) -> str:
        text = "".join(tokens)
        return text.replace(WORD_BOUNDARY, " ").strip()
