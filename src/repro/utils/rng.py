"""Deterministic random-number utilities.

Everything stochastic in this library (weight init, data generation,
sampling-based decoding) flows through a :class:`SeededRNG` so that
experiments are exactly reproducible from a single integer seed.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

import numpy as np

T = TypeVar("T")


class SeededRNG:
    """A thin, typed wrapper around :class:`numpy.random.Generator`.

    The wrapper exists for two reasons: it gives every subsystem a single
    seeding idiom, and it adds small conveniences (``choice`` over Python
    sequences with correct typing, ``spawn`` for independent substreams).
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._gen = np.random.default_rng(self.seed)

    # -- scalar draws ---------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Return one float drawn uniformly from ``[low, high)``."""
        return float(self._gen.uniform(low, high))

    def randint(self, low: int, high: int) -> int:
        """Return one integer drawn uniformly from ``[low, high)``."""
        return int(self._gen.integers(low, high))

    def random(self) -> float:
        """Return one float in ``[0, 1)``."""
        return float(self._gen.random())

    def coin(self, p_true: float = 0.5) -> bool:
        """Return ``True`` with probability ``p_true``."""
        return bool(self._gen.random() < p_true)

    # -- array draws ----------------------------------------------------
    def normal(self, shape: Sequence[int], std: float = 1.0) -> np.ndarray:
        """Return a float64 array of the given shape ~ N(0, std^2)."""
        return self._gen.normal(0.0, std, size=tuple(shape))

    def uniform_array(
        self, shape: Sequence[int], low: float = 0.0, high: float = 1.0
    ) -> np.ndarray:
        """Return a float64 array of the given shape ~ U[low, high)."""
        return self._gen.uniform(low, high, size=tuple(shape))

    def permutation(self, n: int) -> np.ndarray:
        """Return a random permutation of ``range(n)``."""
        return self._gen.permutation(n)

    # -- sequence helpers -------------------------------------------------
    def choice(self, items: Sequence[T]) -> T:
        """Return one uniformly chosen element of a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[self.randint(0, len(items))]

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        """Return ``k`` distinct elements of ``items`` in random order."""
        if k > len(items):
            raise ValueError(f"cannot sample {k} items from {len(items)}")
        idx = self._gen.choice(len(items), size=k, replace=False)
        return [items[int(i)] for i in idx]

    def shuffled(self, items: Sequence[T]) -> list[T]:
        """Return a shuffled copy of ``items`` (the input is untouched)."""
        return [items[int(i)] for i in self.permutation(len(items))]

    # -- substreams -------------------------------------------------------
    def spawn(self, label: str) -> "SeededRNG":
        """Return an independent RNG derived from this seed and ``label``.

        Two spawns with different labels are statistically independent;
        spawning is stable across runs (same seed + label = same stream).
        """
        child_seed = (hash_label(label) ^ (self.seed * 0x9E3779B1)) % (2**31 - 1)
        return SeededRNG(child_seed)

    @property
    def generator(self) -> np.random.Generator:
        """Expose the underlying numpy generator for bulk operations."""
        return self._gen


def hash_label(label: str) -> int:
    """Stable (non-salted) 32-bit FNV-1a hash of a string label."""
    h = 0x811C9DC5
    for byte in label.encode("utf-8"):
        h ^= byte
        h = (h * 0x01000193) % (2**32)
    return h


def spawn_rng(seed: int, label: str) -> SeededRNG:
    """Shorthand for ``SeededRNG(seed).spawn(label)``."""
    return SeededRNG(seed).spawn(label)
