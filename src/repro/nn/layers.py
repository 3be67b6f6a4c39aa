"""Elementary layers: Linear, Embedding, LayerNorm."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.errors import ModelError
from repro.nn.module import Module
from repro.utils.rng import SeededRNG


class Linear(Module):
    """Affine projection ``y = x W + b`` with Xavier-uniform init."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: SeededRNG,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        bound = float(np.sqrt(6.0 / (in_features + out_features)))
        self.weight = Tensor(
            rng.uniform_array((in_features, out_features), -bound, bound),
            requires_grad=True,
        )
        self.bias: Optional[Tensor] = None
        if bias:
            self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Graph-free :meth:`forward` on a plain array (same float ops)."""
        out = x @ self.weight.data
        if self.bias is not None:
            out += self.bias.data
        return out


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, dim: int, rng: SeededRNG) -> None:
        super().__init__()
        if num_embeddings <= 0 or dim <= 0:
            raise ModelError("embedding sizes must be positive")
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Tensor(
            rng.normal((num_embeddings, dim), std=0.02), requires_grad=True
        )

    def forward(self, ids: np.ndarray) -> Tensor:
        return F.embedding(self.weight, ids)


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Graph-free :meth:`forward`: the same :func:`F.layer_norm_parts`."""
        return F.layer_norm_parts(x, self.weight.data, self.bias.data, self.eps)[0]

