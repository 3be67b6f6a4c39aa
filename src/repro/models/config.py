"""Model configuration and analytic parameter counting.

The analytic count is exact for our implementation (verified against
``Module.num_parameters`` in tests) and is the basis for the Figure 1
reproduction: each historical model's published parameter count is
recovered from its architecture hyper-parameters with the same formula.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelError


@dataclass(frozen=True)
class ModelConfig:
    """Hyper-parameters of a Transformer language model.

    Attributes:
        vocab_size: number of tokens in the vocabulary.
        max_seq_len: maximum sequence length (size of the position table).
        dim: model (embedding) dimension.
        num_layers: number of Transformer blocks.
        num_heads: attention heads per block.
        ff_dim: feed-forward hidden dimension (commonly ``4 * dim``).
        causal: True for decoder-only (GPT-style), False for encoder-only.

    The LM head of both model classes is tied to the token embedding.
    """

    vocab_size: int
    max_seq_len: int = 64
    dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ff_dim: int = 256
    causal: bool = True

    def __post_init__(self) -> None:
        if self.dim % self.num_heads != 0:
            raise ModelError(
                f"dim {self.dim} not divisible by num_heads {self.num_heads}"
            )
        if min(self.vocab_size, self.max_seq_len, self.dim, self.num_layers) <= 0:
            raise ModelError("all size hyper-parameters must be positive")

    @classmethod
    def tiny(cls, vocab_size: int, causal: bool = True) -> "ModelConfig":
        """A configuration small enough to train in unit tests."""
        return cls(
            vocab_size=vocab_size, max_seq_len=48, dim=32, num_layers=2,
            num_heads=2, ff_dim=64, causal=causal,
        )

    @classmethod
    def small(cls, vocab_size: int, causal: bool = True) -> "ModelConfig":
        """A configuration for the example scripts (seconds to train)."""
        return cls(
            vocab_size=vocab_size, max_seq_len=96, dim=64, num_layers=3,
            num_heads=4, ff_dim=128, causal=causal,
        )


def transformer_param_count(
    vocab_size: int,
    max_seq_len: int,
    dim: int,
    num_layers: int,
    ff_dim: int,
) -> int:
    """Exact trainable-parameter count of our Transformer LM.

    Composition per block: two layer norms (2 * 2 * dim), four attention
    projections (4 * (dim^2 + dim)), and the feed-forward pair
    (dim * ff + ff) + (ff * dim + dim). On top: token and position
    embeddings and a final layer norm; the LM head is tied to the token
    embedding, so it adds nothing.
    """
    per_block = (
        2 * (2 * dim)
        + 4 * (dim * dim + dim)
        + (dim * ff_dim + ff_dim)
        + (ff_dim * dim + dim)
    )
    embeddings = vocab_size * dim + max_seq_len * dim
    final_norm = 2 * dim
    return embeddings + num_layers * per_block + final_norm


def config_param_count(config: ModelConfig) -> int:
    """Parameter count of a model built from ``config``."""
    return transformer_param_count(
        vocab_size=config.vocab_size,
        max_seq_len=config.max_seq_len,
        dim=config.dim,
        num_layers=config.num_layers,
        ff_dim=config.ff_dim,
    )
