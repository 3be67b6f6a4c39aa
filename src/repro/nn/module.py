"""Base class for neural-network modules (parameter registry)."""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.autograd import Tensor
from repro.errors import ModelError

ParameterDict = Dict[str, np.ndarray]


class Module:
    """Base class providing parameter registration and serialization.

    Assigning a :class:`Tensor` with ``requires_grad=True`` or another
    :class:`Module` to an attribute registers it automatically, so
    subclasses just assign in ``__init__`` and get ``parameters()``,
    ``state_dict()`` and friends for free.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # -- parameter access ---------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        """Yield (qualified name, parameter) pairs, depth-first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Tensor]:
        """Return all trainable parameters (depth-first order)."""
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Return the total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # -- serialization ----------------------------------------------------------
    def state_dict(self) -> ParameterDict:
        """Return a name -> array snapshot of all parameters (copies)."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: ParameterDict) -> None:
        """Load parameter values from a :meth:`state_dict` snapshot."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise ModelError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.shape:
                raise ModelError(
                    f"shape mismatch for {name}: "
                    f"checkpoint {value.shape} vs model {param.shape}"
                )
            param.data = value.copy()

    # -- niceties ----------------------------------------------------------------
    def __call__(self, *args: object, **kwargs: object) -> object:
        return self.forward(*args, **kwargs)

    def forward(self, *args: object, **kwargs: object) -> object:
        raise NotImplementedError(f"{type(self).__name__} must implement forward()")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(params={self.num_parameters():,})"
