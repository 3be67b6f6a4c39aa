"""In-memory spans around calls into the program's layers.

The benchmark records spans from its own code: :meth:`Tracer.wrap`
replaces a callable at the name its caller looks it up by (a module
function such as ``repro.sql.cluster.coordinator.execute_select``, a
class method such as ``WriteAheadLog.sync``, or a method of one
instance) and :meth:`Tracer.restore` puts every original back. Nothing
in the program changes; an untraced phase runs the original callables.

A span knows its name, thread, start, end and the enclosing span on the
same thread. Self time subtracts only same-thread children, so a decode
on the gateway's worker thread or a shard scan on the cluster's pool is
never charged to the caller that is waiting for it.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: hook called with the wrapped call's arguments: ``(args, kwargs)``
Before = Callable[[tuple, dict], Any]
#: hook called after the call: ``(args, kwargs, result, before_value)``
After = Callable[[tuple, dict, Any, Any], Optional[Dict[str, Any]]]


class Span:
    __slots__ = ("name", "thread", "start", "end", "parent", "attrs")

    def __init__(self, name: str, thread: int, start: float, parent: int) -> None:
        self.name = name
        self.thread = thread
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped callables until :meth:`restore`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.origin = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[tuple] = []

    # -- instrumentation ---------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Optional[Before] = None,
        after: Optional[After] = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``after`` may return a dict that is stored on the span; it also
        receives whatever ``before`` returned, so deltas of a stats
        object across the call are easy to take.
        """
        original = getattr(owner, attr)
        own = attr in vars(owner)
        previous = vars(owner).get(attr)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            noted = before(args, kwargs) if before is not None else None
            span = Span(
                name,
                threading.get_ident(),
                time.perf_counter(),
                stack[-1] if stack else -1,
            )
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if after is not None:
                span.attrs = after(args, kwargs, result, noted)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, own, previous))

    def restore(self) -> None:
        """Put every wrapped callable back, newest first."""
        while self._patches:
            owner, attr, own, previous = self._patches.pop()
            if own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- reading -------------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def durations(self, name: str) -> List[float]:
        return [span.duration for span in self.named(name)]

    def self_times(self, name: str) -> List[float]:
        """Each ``name`` span's duration minus its same-thread children."""
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
        return [
            span.duration - covered.get(index, 0.0)
            for index, span in enumerate(self.spans)
            if span.name == name
        ]

    def write_json(self, path: Path) -> None:
        """Write every span, times in microseconds from the tracer's start."""
        threads: Dict[int, int] = {}
        rows = []
        for index, span in enumerate(self.spans):
            rows.append(
                {
                    "id": index,
                    "name": span.name,
                    "thread": threads.setdefault(span.thread, len(threads)),
                    "start_us": round((span.start - self.origin) * 1e6, 1),
                    "dur_us": round(span.duration * 1e6, 1),
                    "parent": span.parent,
                    **({"attrs": span.attrs} if span.attrs else {}),
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        # A span dump is rewritten whole by each traced run.
        path.write_text(  # repro: noqa[atomic-write]
            json.dumps({"spans": rows}) + "\n", encoding="utf-8"
        )
