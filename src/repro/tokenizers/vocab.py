"""Vocabulary: a bidirectional token <-> id mapping with special tokens."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.errors import TokenizerError


#: the reserved tokens every vocabulary carries, in id order. They follow
#: the BERT/GPT conventions the tutorial's audience would recognize:
#: ``[PAD]`` for padding, ``[UNK]`` for out-of-vocabulary tokens,
#: ``[CLS]``/``[SEP]`` for sequence classification inputs, ``[MASK]`` for
#: masked language modeling, and ``[BOS]``/``[EOS]`` for generative models.
PAD, UNK, CLS, SEP, MASK, BOS, EOS = (
    "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "[BOS]", "[EOS]"
)
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK, BOS, EOS)


@dataclass
class Vocabulary:
    """Bidirectional mapping between string tokens and integer ids.

    Ids are assigned densely starting at 0; the special tokens always
    occupy the first ids so that e.g. padding id is stable across runs.
    """

    _token_to_id: Dict[str, int] = field(default_factory=dict)
    _id_to_token: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self._token_to_id:
            for token in SPECIAL_TOKENS:
                self.add(token)

    # -- mutation ---------------------------------------------------------
    def add(self, token: str) -> int:
        """Add a token if absent; return its id either way."""
        existing = self._token_to_id.get(token)
        if existing is not None:
            return existing
        token_id = len(self._id_to_token)
        self._token_to_id[token] = token_id
        self._id_to_token.append(token)
        return token_id

    def add_all(self, tokens: Iterable[str]) -> None:
        """Add every token in ``tokens`` (duplicates are ignored)."""
        for token in tokens:
            self.add(token)

    # -- lookup -------------------------------------------------------------
    def id_of(self, token: str) -> int:
        """Return the id of ``token``, or the ``[UNK]`` id if unknown."""
        return self._token_to_id.get(token, self._token_to_id[UNK])

    def strict_id_of(self, token: str) -> int:
        """Return the id of ``token``; raise if the token is unknown."""
        try:
            return self._token_to_id[token]
        except KeyError:
            raise TokenizerError(f"unknown token: {token!r}") from None

    def token_of(self, token_id: int) -> str:
        """Return the token string for an id; raise on out-of-range ids."""
        if not 0 <= token_id < len(self._id_to_token):
            raise TokenizerError(f"token id out of range: {token_id}")
        return self._id_to_token[token_id]

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def __len__(self) -> int:
        return len(self._id_to_token)

    # -- convenience ids ------------------------------------------------------
    @property
    def pad_id(self) -> int:
        return self._token_to_id[PAD]

    @property
    def unk_id(self) -> int:
        return self._token_to_id[UNK]

    @property
    def cls_id(self) -> int:
        return self._token_to_id[CLS]

    @property
    def sep_id(self) -> int:
        return self._token_to_id[SEP]

    @property
    def mask_id(self) -> int:
        return self._token_to_id[MASK]

    @property
    def bos_id(self) -> int:
        return self._token_to_id[BOS]

    @property
    def eos_id(self) -> int:
        return self._token_to_id[EOS]

    def special_ids(self) -> List[int]:
        """Return the ids of all special tokens."""
        return [self._token_to_id[t] for t in SPECIAL_TOKENS]

    def tokens(self) -> List[str]:
        """Return all tokens in id order (a copy)."""
        return list(self._id_to_token)

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, int]:
        """Return the token -> id mapping (a copy)."""
        return dict(self._token_to_id)

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "Vocabulary":
        """Build a vocabulary from an iterable of (non-special) tokens."""
        vocab = cls()
        vocab.add_all(tokens)
        return vocab
