"""A simulated DBMS with tunable knobs and an analytic cost model.

The model is deliberately simple but captures the qualitative effects a
manual describes: a larger buffer pool raises the cache hit rate with
diminishing returns (until it exceeds RAM and thrashes), more worker
threads help scans up to the core count (then contention), a bigger log
buffer helps write-heavy workloads, and compression trades CPU for I/O
so it helps only when the workload is I/O-bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Union

from repro.errors import TuningError

KnobValue = Union[int, bool]


@dataclass(frozen=True)
class DBMSConfig:
    """One configuration of the simulated DBMS."""

    buffer_pool_mb: int = 128
    worker_threads: int = 1
    log_buffer_kb: int = 64
    compression: bool = False

    KNOBS = ("buffer_pool_mb", "worker_threads", "log_buffer_kb", "compression")

    def with_knob(self, knob: str, value: KnobValue) -> "DBMSConfig":
        """Return a copy with one knob changed."""
        if knob not in self.KNOBS:
            raise TuningError(f"unknown knob {knob!r}; knobs: {self.KNOBS}")
        return replace(self, **{knob: value})

    def as_dict(self) -> Dict[str, KnobValue]:
        return {knob: getattr(self, knob) for knob in self.KNOBS}


@dataclass(frozen=True)
class Workload:
    """Workload characteristics the cost model responds to."""

    data_mb: int = 2048
    read_fraction: float = 0.9
    cores: int = 8
    io_bound: bool = True


class SimulatedDBMS:
    """Evaluates configurations: returns throughput in ops/second."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.evaluations = 0

    def throughput(self, config: DBMSConfig) -> float:
        """Deterministic throughput of ``config`` on the workload."""
        self._validate(config)
        self.evaluations += 1
        w = self.workload

        # Cache hit rate grows with buffer size relative to data size,
        # with diminishing returns; oversizing past 4 GiB thrashes.
        ratio = config.buffer_pool_mb / w.data_mb
        hit_rate = 1.0 - math.exp(-3.0 * ratio)
        thrash = 0.7 if config.buffer_pool_mb > 4096 else 1.0
        read_speed = (0.2 + 0.8 * hit_rate) * thrash

        # Thread scaling: near-linear to the core count, then contention.
        threads = config.worker_threads
        if threads <= w.cores:
            scan_speed = threads**0.8
        else:
            scan_speed = w.cores**0.8 * (1.0 - 0.05 * (threads - w.cores))
        scan_speed = max(scan_speed, 0.1)

        # Log buffer matters for writes only (diminishing returns at 1 MiB).
        log_factor = 1.0 - math.exp(-config.log_buffer_kb / 256.0)
        write_speed = 0.3 + 0.7 * log_factor

        # Compression: ~30% I/O saving when I/O-bound, ~20% CPU tax always.
        compression_factor = 1.0
        if config.compression:
            compression_factor = 1.3 if w.io_bound else 0.8

        read_part = w.read_fraction * read_speed * scan_speed
        write_part = (1.0 - w.read_fraction) * write_speed
        return 1000.0 * (read_part + write_part) * compression_factor

    @staticmethod
    def _validate(config: DBMSConfig) -> None:
        if config.buffer_pool_mb <= 0:
            raise TuningError("buffer_pool_mb must be positive")
        if config.worker_threads <= 0:
            raise TuningError("worker_threads must be positive")
        if config.log_buffer_kb <= 0:
            raise TuningError("log_buffer_kb must be positive")
