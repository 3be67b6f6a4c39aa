"""Preallocated K/V slabs for incremental decoding.

Appending each decode step's keys and values with ``np.concatenate``
would reallocate and copy the entire cache on every token — O(n²)
memory traffic over a generation of n tokens. A :class:`KVCache`
instead owns one preallocated slab per layer and writes new columns
*in place*; when the slab fills up, capacity doubles, so the total
bytes copied over a whole generation is O(n) (amortized constant per
token), exactly the dynamic-array argument.

The slab is deliberately free of any ``repro`` imports so the neural
layers can use it without an import cycle (``repro.nn`` is imported by
``repro.serving``, not the other way around): ``MultiHeadAttention``
recognizes it by duck typing (anything with ``append``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

#: capacity of the first allocation when the caller gives no hint
DEFAULT_CAPACITY = 64


class KVCache:
    """One layer's growing K/V slab with amortized-O(1) appends.

    Arrays have shape ``(batch, heads, capacity, head_dim)`` and are
    allocated lazily on the first :meth:`append`, so the same object
    works for any batch/head geometry. ``append`` writes the new
    columns in place and returns zero-copy views of the live prefix.

    Shared state: ``k``/``v``/``length`` mutate in place on every
    append, and the returned views alias the slab; one decode loop must
    own a cache exclusively (the shared-state audit in
    :mod:`repro.analysis.concurrency` tracks these writes).
    """

    __slots__ = ("k", "v", "length", "_initial_capacity")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.k: Optional[np.ndarray] = None
        self.v: Optional[np.ndarray] = None
        self.length = 0
        self._initial_capacity = capacity

    def __len__(self) -> int:
        return self.length

    @property
    def capacity(self) -> int:
        """Columns the slab can hold before the next doubling."""
        return 0 if self.k is None else self.k.shape[2]

    @property
    def nbytes(self) -> int:
        """Bytes held by the slab (zero before the first append)."""
        if self.k is None:
            return 0
        return self.k.nbytes + self.v.nbytes

    def append(
        self, k: np.ndarray, v: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Write new columns; return views of all live keys/values.

        ``k`` and ``v`` have shape (batch, heads, new, head_dim). The
        returned arrays are views into the slab of shape
        (batch, heads, length, head_dim) — valid until the next append
        that triggers a growth reallocation.
        """
        batch, heads, new, head_dim = k.shape
        if self.k is None:
            capacity = max(self._initial_capacity, new)
            shape = (batch, heads, capacity, head_dim)
            self.k = np.zeros(shape, dtype=k.dtype)
            self.v = np.zeros(shape, dtype=v.dtype)
        elif self.k.shape[0] != batch:
            raise ValueError(
                f"batch size changed mid-generation: slab has "
                f"{self.k.shape[0]} rows, append got {batch}"
            )
        if self.length + new > self.k.shape[2]:
            capacity = max(2 * self.k.shape[2], self.length + new)
            grown_k = np.zeros(
                (batch, heads, capacity, head_dim), dtype=self.k.dtype
            )
            grown_v = np.zeros_like(grown_k)
            grown_k[:, :, : self.length] = self.k[:, :, : self.length]
            grown_v[:, :, : self.length] = self.v[:, :, : self.length]
            self.k, self.v = grown_k, grown_v
        self.k[:, :, self.length : self.length + new] = k
        self.v[:, :, self.length : self.length + new] = v
        self.length += new
        return self.k[:, :, : self.length], self.v[:, :, : self.length]
