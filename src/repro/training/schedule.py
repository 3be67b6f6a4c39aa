"""Learning-rate schedules used by the pre-training loops."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.errors import TrainingError


class Schedule(ABC):
    """Maps a step index to a learning-rate multiplier in (0, 1]."""

    @abstractmethod
    def multiplier(self, step: int) -> float:
        """Return the LR multiplier for ``step`` (0-indexed)."""

    def lr_at(self, step: int, base_lr: float) -> float:
        """Return the absolute learning rate at ``step``."""
        return base_lr * self.multiplier(step)


class ConstantSchedule(Schedule):
    """No decay."""

    def multiplier(self, step: int) -> float:
        return 1.0


class LinearWarmupSchedule(Schedule):
    """Linear warmup to 1.0, then linear decay to 0."""

    def __init__(self, warmup_steps: int, total_steps: int) -> None:
        if warmup_steps < 0 or total_steps <= 0:
            raise TrainingError("schedule steps must be non-negative / positive")
        if warmup_steps >= total_steps:
            raise TrainingError("warmup_steps must be smaller than total_steps")
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps

    def multiplier(self, step: int) -> float:
        if self.warmup_steps > 0 and step < self.warmup_steps:
            return (step + 1) / self.warmup_steps
        remaining = max(self.total_steps - step, 0)
        return remaining / (self.total_steps - self.warmup_steps)


class CosineSchedule(Schedule):
    """Linear warmup followed by cosine decay to 0."""

    def __init__(self, warmup_steps: int, total_steps: int) -> None:
        if warmup_steps >= total_steps:
            raise TrainingError("warmup_steps must be smaller than total_steps")
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps

    def multiplier(self, step: int) -> float:
        if self.warmup_steps > 0 and step < self.warmup_steps:
            return (step + 1) / self.warmup_steps
        progress = (step - self.warmup_steps) / (self.total_steps - self.warmup_steps)
        progress = min(max(progress, 0.0), 1.0)
        return 0.5 * (1.0 + math.cos(math.pi * progress))
