"""First-order optimizers over lists of :class:`Tensor` parameters."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional

import numpy as np

from repro.autograd import Tensor
from repro.errors import TrainingError


class Optimizer(ABC):
    """Base optimizer: step over parameters whose ``.grad`` is populated."""

    def __init__(self, params: List[Tensor], lr: float) -> None:
        if not params:
            raise TrainingError("optimizer received no parameters")
        if lr <= 0:
            raise TrainingError(f"learning rate must be positive, got {lr}")
        self.params = params
        self.lr = lr

    @abstractmethod
    def step(self) -> None:
        """Apply one update using accumulated gradients."""

    def zero_grad(self) -> None:
        """Clear gradients of all managed parameters."""
        for param in self.params:
            param.zero_grad()

    def clip_grad_norm(self, max_norm: float) -> float:
        """Clip the global gradient norm; return the pre-clip norm."""
        total = 0.0
        for param in self.params:
            if param.grad is not None:
                total += float((param.grad**2).sum())
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for param in self.params:
                if param.grad is not None:
                    param.grad *= scale
        return norm


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, params: List[Tensor], lr: float, momentum: float = 0.0) -> None:
        super().__init__(params, lr)
        self.momentum = momentum
        self._velocity: Optional[List[np.ndarray]] = None
        if momentum > 0:
            self._velocity = [np.zeros_like(p.data) for p in params]

    def step(self) -> None:
        for i, param in enumerate(self.params):
            if param.grad is None:
                continue
            if self._velocity is not None:
                self._velocity[i] = self.momentum * self._velocity[i] + param.grad
                param.data -= self.lr * self._velocity[i]
            else:
                param.data -= self.lr * param.grad


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        params: List[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in params]
        self._v = [np.zeros_like(p.data) for p in params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for i, param in enumerate(self.params):
            if param.grad is None:
                continue
            # In place, in the same op order as m = b1*m + (1-b1)*g and
            # v = b2*v + (1-b2)*g*g, so the moments are bit-identical.
            m, v = self._m[i], self._v[i]
            m *= self.beta1
            m += (1 - self.beta1) * param.grad
            v *= self.beta2
            v += (1 - self.beta2) * (param.grad * param.grad)
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class AdamW(Adam):
    """Adam with decoupled weight decay (the Transformer default)."""

    def __init__(
        self,
        params: List[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ) -> None:
        super().__init__(params, lr, betas, eps)
        self.weight_decay = weight_decay

    def step(self) -> None:
        # Decay only parameters that received a gradient this step —
        # frozen parameters (e.g. under adapter fine-tuning) must not
        # shrink toward zero.
        if self.weight_decay > 0:
            for param in self.params:
                if param.grad is not None:
                    param.data -= self.lr * self.weight_decay * param.data
        super().step()
