"""Int8 weight quantization for :class:`~repro.nn.layers.Linear` layers.

The serving-efficiency literature (the implementation survey in
PAPERS.md, arXiv 2403.18969) lists weight-only quantization as the
cheapest decode-speed rung after batching: weights are stored once per
model but streamed through the matmul on every token, so shrinking them
8x cuts exactly the bandwidth the decode loop is bound by. This module
implements the symmetric per-output-channel scheme:

* each output channel ``j`` gets one scale ``s_j = max_i |W_ij| / 127``;
* the stored weight is ``W_q = round(W / s_j)``, an int8 matrix;
* the forward pass is *dequantize-free*: instead of reconstructing
  ``W_q * s_j`` per call, the activation is cast to float32 and
  multiplied against the raw integer matrix (exactly representable in
  float32), and the per-channel scales are applied to the **output**
  row: ``y = (x_f32 @ W_q_f32) * s + b``. One fp32 sgemm replaces the
  fp64 dgemm — about half the memory traffic — and the scales touch
  ``out_features`` values instead of ``in*out``.

Quantized layers are inference-only: the integer weights do not carry
gradients, so :func:`quantize_model` works on a deep copy and leaves the
original trainable model untouched.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.autograd import Tensor
from repro.errors import ModelError
from repro.nn.layers import Linear
from repro.nn.module import Module


@dataclass(frozen=True)
class LayerQuantReport:
    """Round-trip error of one quantized linear layer."""

    name: str
    shape: Tuple[int, int]
    max_abs_error: float
    mean_abs_error: float


@dataclass
class QuantizationReport:
    """Aggregate round-trip error report for one :func:`quantize_model`.

    ``max_abs_error`` is the worst ``|W - W_q * s|`` element across every
    quantized weight — the number that bounds how far any single
    activation product can drift. ``int8_bytes``/``float_bytes`` compare
    the stored weight footprints.
    """

    layers: List[LayerQuantReport] = field(default_factory=list)
    int8_bytes: int = 0
    float_bytes: int = 0

    @property
    def max_abs_error(self) -> float:
        return max((l.max_abs_error for l in self.layers), default=0.0)

    @property
    def mean_abs_error(self) -> float:
        if not self.layers:
            return 0.0
        return float(np.mean([l.mean_abs_error for l in self.layers]))

    @property
    def compression(self) -> float:
        """Weight-bytes shrink factor (float64 stored vs int8 stored)."""
        return self.float_bytes / self.int8_bytes if self.int8_bytes else 0.0


def quantize_weight(weight: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric per-output-channel int8 quantization of ``(in, out)``.

    Returns ``(w_q, scales)`` with ``w_q`` int8 and ``scales`` shaped
    ``(out,)`` such that ``w_q * scales`` reconstructs the weight to
    within half a quantization step per element. All-zero channels get
    scale 1.0 so the round trip stays exact.
    """
    scales = np.abs(weight).max(axis=0) / 127.0
    scales[scales == 0.0] = 1.0
    w_q = np.clip(np.rint(weight / scales), -127, 127).astype(np.int8)
    return w_q, scales


class QuantizedLinear(Module):
    """Inference-only int8 drop-in for :class:`~repro.nn.layers.Linear`.

    Stores the weight as int8 plus per-output-channel float scales, and
    keeps one cached float32 copy of the *integer* matrix (int8 values
    are exactly representable in float32) so the hot path is a single
    sgemm with the scales applied to the output — never a dequantized
    weight materialization. The bias stays float64 and is added after
    scaling, exactly as in the float layer.
    """

    def __init__(self, linear: Linear) -> None:
        super().__init__()
        self.in_features = linear.in_features
        self.out_features = linear.out_features
        self.weight_q, self.scales = quantize_weight(linear.weight.data)
        self._weight_f32 = self.weight_q.astype(np.float32)
        self.bias = None if linear.bias is None else linear.bias.data.copy()

    def forward(self, x: Tensor) -> Tensor:
        return Tensor(self.infer(x.data))

    def infer(self, x: np.ndarray) -> np.ndarray:
        """The int8 kernel on a plain array; :meth:`forward` wraps it."""
        out = (x.astype(np.float32) @ self._weight_f32).astype(np.float64)
        out *= self.scales
        if self.bias is not None:
            out += self.bias
        return out

    @property
    def max_abs_error(self) -> float:
        """Worst per-element round-trip error of this layer's weight."""
        # The integer matrix times the scales is the dequantized weight;
        # each element is within scale/2 of the original by construction.
        return float(np.max(self.scales) * 0.5)


def quantize_model(model: Module) -> Tuple[Module, QuantizationReport]:
    """Return an int8-weight copy of ``model`` plus a round-trip report.

    Every :class:`Linear` in the module tree is replaced by a
    :class:`QuantizedLinear` on a deep copy — the original model keeps
    its float weights and gradients. Embeddings and layer norms stay in
    float (they are lookup/normalization, not matmul-bound). The copy is
    inference-only: its quantized layers expose no trainable parameters.
    """
    quantized = copy.deepcopy(model)
    report = QuantizationReport()
    _replace_linears(quantized, "", report)
    if not report.layers:
        raise ModelError("model contains no Linear layers to quantize")
    return quantized, report


def _replace_linears(module: Module, prefix: str, report: QuantizationReport) -> None:
    for name, child in list(module._modules.items()):
        path = f"{prefix}{name}"
        if isinstance(child, Linear):
            original = child.weight.data
            qlin = QuantizedLinear(child)
            dequantized = qlin.weight_q.astype(np.float64) * qlin.scales
            error = np.abs(original - dequantized)
            report.layers.append(
                LayerQuantReport(
                    name=path,
                    shape=(child.in_features, child.out_features),
                    max_abs_error=float(error.max()),
                    mean_abs_error=float(error.mean()),
                )
            )
            report.int8_bytes += qlin.weight_q.nbytes + qlin.scales.nbytes
            report.float_bytes += original.nbytes
            setattr(module, name, qlin)
        else:
            _replace_linears(child, f"{path}.", report)
