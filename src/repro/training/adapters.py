"""Parameter-efficient fine-tuning: low-rank adapters (LoRA-style).

Section 2.3 of the tutorial cites parameter-efficient transfer learning
[28] as the way fine-tuning keeps its cost low: instead of updating all
weights, train a small number of new parameters against a frozen
backbone. This module implements the low-rank-update variant: every
selected :class:`~repro.nn.layers.Linear` gets a trainable ``B @ A``
bypass (rank ``r``), the original weight stays frozen, and
:func:`merge_adapters` folds the update back in for zero-overhead
inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.autograd import Tensor
from repro.errors import TrainingError
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.utils.rng import SeededRNG


class LoRALinear(Module):
    """A frozen Linear plus a trainable low-rank residual ``x A B``.

    The adapted forward is ``x W + b + (x A) B * scale``. ``A`` is
    Gaussian-initialized, ``B`` starts at zero, so the adapted model is
    exactly the base model at step 0 (the LoRA convention).
    """

    def __init__(self, base: Linear, rank: int, rng: SeededRNG, alpha: float = 8.0) -> None:
        super().__init__()
        if rank <= 0:
            raise TrainingError(f"adapter rank must be positive, got {rank}")
        self.base = base
        self.rank = rank
        self.scale = alpha / rank
        # Freeze the base weights: drop them from the trainable set.
        base.weight.requires_grad = False
        if base.bias is not None:
            base.bias.requires_grad = False
        self.lora_a = Tensor(
            rng.normal((base.in_features, rank), std=0.02), requires_grad=True
        )
        self.lora_b = Tensor(
            np.zeros((rank, base.out_features)), requires_grad=True
        )

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.base.weight
        if self.base.bias is not None:
            out = out + self.base.bias
        return out + ((x @ self.lora_a) @ self.lora_b) * self.scale

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Graph-free :meth:`forward` for the cached decode path."""
        out = self.base.infer(x)
        return out + ((x @ self.lora_a.data) @ self.lora_b.data) * self.scale

    def merged_weight(self) -> np.ndarray:
        """The effective weight after folding in the adapter."""
        return self.base.weight.data + self.scale * (
            self.lora_a.data @ self.lora_b.data
        )


def inject_adapters(
    model: Module,
    rank: int = 4,
    target_names: Tuple[str, ...] = ("query", "value"),
    seed: int = 0,
) -> List[LoRALinear]:
    """Replace selected Linear submodules with LoRA-wrapped versions.

    ``target_names`` selects which attribute names get adapters (the
    LoRA default adapts attention Q and V projections). Every other
    parameter of the model is frozen. Returns the injected adapters.
    """
    rng = SeededRNG(seed)
    # Freeze everything first; adapters then re-introduce trainables.
    for param in model.parameters():
        param.requires_grad = False

    adapters: List[LoRALinear] = []

    def visit(module: Module, prefix: str) -> None:
        for name, child in list(module._modules.items()):
            if isinstance(child, Linear) and name in target_names:
                adapter = LoRALinear(child, rank, rng.spawn(f"{prefix}{name}"))
                setattr(module, name, adapter)
                adapters.append(adapter)
            else:
                visit(child, prefix=f"{prefix}{name}.")

    visit(model, prefix="")
    if not adapters:
        raise TrainingError(
            f"no Linear submodules named {target_names} found to adapt"
        )
    return adapters


def trainable_parameter_count(model: Module) -> int:
    """Number of parameters that would receive gradients."""
    return sum(p.size for p in model.parameters() if p.requires_grad)


def merge_adapters(model: Module) -> int:
    """Fold every adapter into its base weight and restore plain Linears.

    After merging, inference uses the original Linear fast path with
    the adapted weights. Returns the number of merged adapters.
    """
    merged = 0

    def visit(module: Module) -> None:
        nonlocal merged
        for name, child in list(module._modules.items()):
            if isinstance(child, LoRALinear):
                child.base.weight.data = child.merged_weight()
                setattr(module, name, child.base)
                merged += 1
            else:
                visit(child)

    visit(model)
    return merged
