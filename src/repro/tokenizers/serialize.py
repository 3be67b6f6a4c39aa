"""Save and load trained tokenizers as JSON files."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.errors import TokenizerError
from repro.tokenizers.base import Tokenizer
from repro.tokenizers.bpe import BPETokenizer
from repro.tokenizers.vocab import SPECIAL_TOKENS, Vocabulary
from repro.tokenizers.whitespace import WhitespaceTokenizer
from repro.tokenizers.wordpiece import WordPieceTokenizer

_CLASSES = {
    "BPETokenizer": BPETokenizer,
    "WordPieceTokenizer": WordPieceTokenizer,
    "WhitespaceTokenizer": WhitespaceTokenizer,
}


def save_tokenizer(tokenizer: Tokenizer, path: Union[str, Path]) -> Path:
    """Serialize a trained tokenizer (vocabulary, merges, options)."""
    if not tokenizer.is_trained:
        raise TokenizerError("cannot save an untrained tokenizer")
    path = Path(path)
    if path.suffix != ".json":
        path = path.with_suffix(".json")
    payload: dict = {
        "class": type(tokenizer).__name__,
        "tokens": tokenizer.vocab.tokens(),
    }
    if isinstance(tokenizer, BPETokenizer):
        payload["merges"] = [
            [left, right, rank] for (left, right), rank in tokenizer.merges.items()
        ]
    if isinstance(tokenizer, (WordPieceTokenizer, WhitespaceTokenizer)):
        payload["lowercase"] = tokenizer.lowercase
    if isinstance(tokenizer, WordPieceTokenizer):
        payload["max_subword_len"] = tokenizer.max_subword_len
    # Deferred import: repro.durability depends (via neuraldb/models) on
    # the tokenizers package, so a module-level import would be circular.
    from repro.durability.io import atomic_write_text

    atomic_write_text(path, json.dumps(payload), label="tokenizer")
    return path


def load_tokenizer(path: Union[str, Path]) -> Tokenizer:
    """Reconstruct a tokenizer saved by :func:`save_tokenizer`."""
    path = Path(path)
    if not path.exists():
        raise TokenizerError(f"tokenizer file not found: {path}")
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise TokenizerError(
            f"tokenizer file {path} is corrupt: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise TokenizerError(f"tokenizer file {path} has the wrong schema")
    cls = _CLASSES.get(payload.get("class", ""))
    if cls is None:
        raise TokenizerError(f"unknown tokenizer class {payload.get('class')!r}")

    kwargs = {}
    if "lowercase" in payload and cls in (WordPieceTokenizer, WhitespaceTokenizer):
        kwargs["lowercase"] = payload["lowercase"]
    if "max_subword_len" in payload and cls is WordPieceTokenizer:
        kwargs["max_subword_len"] = payload["max_subword_len"]
    tokenizer = cls(**kwargs)

    tokens = payload.get("tokens")
    if not isinstance(tokens, list):
        raise TokenizerError(f"tokenizer file {path} lacks a token list")
    if tokens[: len(SPECIAL_TOKENS)] != list(SPECIAL_TOKENS):
        raise TokenizerError("tokenizer file has unexpected special tokens")
    tokenizer.vocab = Vocabulary()
    tokenizer.vocab.add_all(tokens)
    if isinstance(tokenizer, BPETokenizer):
        tokenizer.merges = {
            (left, right): rank for left, right, rank in payload.get("merges", [])
        }
    tokenizer._trained = True
    return tokenizer
