"""Tokenizer interface shared by BPE, WordPiece and whitespace tokenizers."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.errors import TokenizerError
from repro.tokenizers.vocab import Vocabulary


@dataclass
class Encoding:
    """The result of encoding one text: ids plus an attention mask.

    ``attention_mask[i]`` is 1 for real tokens and 0 for padding, matching
    the convention of mainstream transformer libraries.
    """

    ids: List[int]
    attention_mask: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.attention_mask:
            self.attention_mask = [1] * len(self.ids)
        if len(self.attention_mask) != len(self.ids):
            raise TokenizerError("attention mask length must match ids length")

    def __len__(self) -> int:
        return len(self.ids)


class Tokenizer(ABC):
    """Abstract tokenizer: train on a corpus, then encode/decode text.

    Concrete subclasses implement :meth:`_tokenize` (text -> subword
    strings) and :meth:`_detokenize` (subword strings -> text); padding,
    truncation and special-token insertion live here so behaviour is
    uniform across tokenizer families.
    """

    def __init__(self) -> None:
        self.vocab = Vocabulary()
        self._trained = False

    # -- subclass responsibilities ------------------------------------------
    @abstractmethod
    def train(self, corpus: Sequence[str], vocab_size: int) -> None:
        """Learn the subword inventory from raw text."""

    @abstractmethod
    def _tokenize(self, text: str) -> List[str]:
        """Split raw text into subword token strings."""

    @abstractmethod
    def _detokenize(self, tokens: List[str]) -> str:
        """Join subword token strings back into text."""

    # -- shared encode/decode -------------------------------------------------
    def tokenize(self, text: str) -> List[str]:
        """Return the subword token strings for ``text``."""
        self._require_trained()
        return self._tokenize(text)

    def encode(
        self,
        text: str,
        max_length: Optional[int] = None,
        pad_to: Optional[int] = None,
        add_bos: bool = False,
        add_eos: bool = False,
    ) -> Encoding:
        """Encode ``text`` into token ids.

        Args:
            text: the input string.
            max_length: if given, truncate the id sequence to this length
                (after adding special tokens).
            pad_to: if given, right-pad with ``[PAD]`` up to this length.
            add_bos: prepend the ``[BOS]`` token.
            add_eos: append the ``[EOS]`` token.
        """
        self._require_trained()
        ids = [self.vocab.id_of(tok) for tok in self._tokenize(text)]
        if add_bos:
            ids = [self.vocab.bos_id] + ids
        if add_eos:
            ids = ids + [self.vocab.eos_id]
        if max_length is not None:
            ids = ids[:max_length]
        mask = [1] * len(ids)
        if pad_to is not None:
            if pad_to < len(ids):
                raise TokenizerError(
                    f"pad_to={pad_to} is shorter than the sequence ({len(ids)})"
                )
            pad_count = pad_to - len(ids)
            ids = ids + [self.vocab.pad_id] * pad_count
            mask = mask + [0] * pad_count
        return Encoding(ids=ids, attention_mask=mask)

    def encode_pair(self, first: str, second: str) -> Encoding:
        """Encode a sentence pair as ``[CLS] first [SEP] second [SEP]``."""
        self._require_trained()
        ids = [self.vocab.cls_id]
        ids += [self.vocab.id_of(t) for t in self._tokenize(first)]
        ids.append(self.vocab.sep_id)
        ids += [self.vocab.id_of(t) for t in self._tokenize(second)]
        ids.append(self.vocab.sep_id)
        return Encoding(ids=ids)

    def decode(self, ids: Sequence[int]) -> str:
        """Convert token ids back into text, dropping special tokens."""
        self._require_trained()
        specials = set(self.vocab.special_ids())
        tokens = [self.vocab.token_of(i) for i in ids if i not in specials]
        return self._detokenize(tokens)

    # -- properties -----------------------------------------------------------
    @property
    def vocab_size(self) -> int:
        """Number of tokens (including specials) in the vocabulary."""
        return len(self.vocab)

    @property
    def is_trained(self) -> bool:
        return self._trained

    def _require_trained(self) -> None:
        if not self._trained:
            raise TokenizerError(
                f"{type(self).__name__} must be trained before use"
            )
