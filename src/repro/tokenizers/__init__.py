"""Tokenizer substrate: vocabularies, BPE (GPT-style), WordPiece (BERT-style).

Both tokenizers are trained from raw text with no external resources,
mirroring the unsupervised-pre-training story of the tutorial's Section 2.2.
"""

from repro.tokenizers.vocab import SPECIAL_TOKENS, Vocabulary
from repro.tokenizers.base import Encoding, Tokenizer
from repro.tokenizers.bpe import BPETokenizer
from repro.tokenizers.wordpiece import WordPieceTokenizer
from repro.tokenizers.whitespace import WhitespaceTokenizer
from repro.tokenizers.serialize import load_tokenizer, save_tokenizer

__all__ = [
    "SPECIAL_TOKENS",
    "Vocabulary",
    "Encoding",
    "Tokenizer",
    "BPETokenizer",
    "WordPieceTokenizer",
    "WhitespaceTokenizer",
    "save_tokenizer",
    "load_tokenizer",
]
