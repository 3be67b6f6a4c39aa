"""Neural-network layers built on the autograd substrate.

Provides the standard Transformer building blocks: linear projections,
embeddings, layer norm, multi-head attention, feed-forward
blocks, and the full pre-norm Transformer block used by both the
BERT-style encoder and the GPT-style decoder.
"""

from repro.nn.module import Module, ParameterDict
from repro.nn.layers import Embedding, LayerNorm, Linear
from repro.nn.attention import (
    MultiHeadAttention,
    causal_mask,
    chunk_causal_mask,
    padding_mask,
)
from repro.nn.transformer import FeedForward, TransformerBlock, TransformerStack

__all__ = [
    "Module",
    "ParameterDict",
    "Linear",
    "Embedding",
    "LayerNorm",
    "MultiHeadAttention",
    "causal_mask",
    "chunk_causal_mask",
    "padding_mask",
    "FeedForward",
    "TransformerBlock",
    "TransformerStack",
]
