"""Reverse-mode automatic differentiation over numpy arrays.

This is the numerical substrate for every model in the library: a
:class:`Tensor` records the operations applied to it and :meth:`Tensor.backward`
propagates gradients through the recorded graph. It supports everything a
Transformer needs — batched matmul, broadcasting arithmetic, attention,
layer normalization, linear layers, GELU, embedding gather — and is
validated against finite differences in the test suite.
"""

from repro.autograd.tensor import Tensor, no_grad
from repro.autograd.functional import (
    attention,
    cross_entropy,
    embedding,
    gelu,
    layer_norm,
    linear,
    log_softmax,
    relu,
    sigmoid,
    tanh,
    concat,
)

__all__ = [
    "Tensor",
    "no_grad",
    "attention",
    "log_softmax",
    "cross_entropy",
    "layer_norm",
    "linear",
    "embedding",
    "gelu",
    "relu",
    "tanh",
    "sigmoid",
    "concat",
]
