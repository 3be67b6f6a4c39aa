"""Concurrency-safety audit for the serving subsystem.

The upcoming multi-tenant async gateway will multiplex one
:class:`~repro.serving.engine.BatchedGenerator` (with the K/V caches
it preallocates per batch) and one
:class:`~repro.serving.prefix.PrefixCache` across concurrent requests.
Both classes mutate plain instance attributes with no
synchronization — fine today (the serving loop is single-threaded), a
data race the moment two request handlers interleave. This module makes that surface auditable *before* the
gateway lands:

* :func:`shared_state_report` walks source trees and inventories, per
  class, which ``self.*`` attributes are written from which methods
  (assignments, augmented assignments, subscript stores, and calls to
  mutating container methods like ``append``/``pop``), skipping
  ``__init__``/``__post_init__`` construction. The result is a
  machine-readable dict — ``python -m repro.analysis.lint
  --shared-state src/repro/serving`` prints it as JSON.
* :func:`concurrency_findings` backs two lint rules that gate the
  gateway's code (both ``# repro: noqa``-able, both scoped to ``async
  def`` bodies so today's single-threaded serving code stays clean):

  - ``shared-state-mutation`` — an ``async def`` writes a ``self.*``
    attribute; between any two awaits another task may observe the
    half-updated object, so the write must be guarded (lock, actor
    queue) or confined to task-local state;
  - ``blocking-call-in-async`` — an ``async def`` calls something that
    blocks the event loop (``time.sleep``, ``open``, ``input``,
    ``subprocess.*``, ``os.system``, ``requests.*``); use the async
    equivalent or push the work to a thread.

This module deliberately does not import :mod:`repro.analysis.lint`
(which must stay import-free from ``repro.analysis`` so ``python -m``
execution never double-imports it); lint imports *us*.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.dataflow import MUTATOR_METHODS
from repro.analysis.findings import Finding

#: module names whose calls block the event loop wholesale
_BLOCKING_MODULES = frozenset({"subprocess", "requests"})

#: plain builtins that block (console/file IO)
_BLOCKING_BUILTINS = frozenset({"open", "input"})


@dataclass(frozen=True)
class SharedWrite:
    """One write to ``self.<attribute>`` from a (non-init) method."""

    attribute: str
    method: str
    line: int
    kind: str  # "assign" | "augassign" | "subscript" | "mutating-call"


def audit_class(node: ast.ClassDef) -> List[SharedWrite]:
    """Inventory ``self.*`` writes in one class body, outside __init__."""
    writes: List[SharedWrite] = []
    for item in node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if item.name in ("__init__", "__post_init__"):
            continue
        writes.extend(_method_writes(item))
    return writes


def _method_writes(method) -> List[SharedWrite]:
    writes: List[SharedWrite] = []

    def record(attribute: Optional[str], line: int, kind: str) -> None:
        if attribute is not None:
            writes.append(
                SharedWrite(
                    attribute=attribute, method=method.name, line=line,
                    kind=kind,
                )
            )

    for node in ast.walk(method):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute):
                    record(_self_root(target), target.lineno, "assign")
                elif isinstance(target, ast.Subscript):
                    record(_self_root(target.value), target.lineno, "subscript")
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Attribute):
                record(_self_root(node.target), node.target.lineno, "augassign")
            elif isinstance(node.target, ast.Subscript):
                record(
                    _self_root(node.target.value), node.target.lineno,
                    "subscript",
                )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATOR_METHODS
            ):
                record(_self_root(func.value), node.lineno, "mutating-call")
    return writes


def _self_root(node: ast.expr) -> Optional[str]:
    """``stats`` for ``self.stats[...]``/``self.stats.hits``; else None."""
    chain: List[str] = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and chain:
        return chain[-1]
    return None


def audit_source(code: str, path: str = "<string>") -> List[dict]:
    """Per-class shared-state entries for one module (see report schema)."""
    try:
        tree = ast.parse(code)
    except SyntaxError:
        return []
    entries: List[dict] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        writes = audit_class(node)
        if not writes:
            continue
        by_attr: Dict[str, List[dict]] = {}
        for write in sorted(writes, key=lambda w: (w.attribute, w.line)):
            by_attr.setdefault(write.attribute, []).append(
                {"method": write.method, "line": write.line, "kind": write.kind}
            )
        entries.append(
            {
                "class": node.name,
                "path": path,
                "line": node.lineno,
                "shared_attributes": by_attr,
            }
        )
    return entries


def shared_state_report(paths: Sequence[Path]) -> dict:
    """Machine-readable shared-state inventory over files/directories.

    Schema::

        {"files_scanned": int,
         "classes": [{"class", "path", "line",
                      "shared_attributes": {attr: [{"method", "line",
                                                    "kind"}, ...]}}]}
    """
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    classes: List[dict] = []
    for file in files:
        classes.extend(
            audit_source(file.read_text(encoding="utf-8"), path=str(file))
        )
    classes.sort(key=lambda entry: (entry["path"], entry["line"]))
    return {"files_scanned": len(files), "classes": classes}


# -- lint rules over async code --------------------------------------------
def concurrency_findings(tree: ast.Module, path: str) -> List[Finding]:
    """``shared-state-mutation`` + ``blocking-call-in-async`` findings."""
    findings: List[Finding] = []
    sleep_aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "time"
        for alias in node.names
        if alias.name == "sleep"
    }
    for func in ast.walk(tree):
        if not isinstance(func, ast.AsyncFunctionDef):
            continue
        for write in _method_writes(func):
            findings.append(
                Finding(
                    rule="shared-state-mutation",
                    message=f"async def {func.name!r} mutates "
                    f"self.{write.attribute} ({write.kind}); another task "
                    "can interleave at any await — guard it with a lock or "
                    "confine it to task-local state",
                    line=write.line,
                    source=path,
                )
            )
        for node in ast.walk(func):
            if isinstance(node, ast.AsyncFunctionDef) and node is not func:
                continue  # nested async defs report themselves
            if not isinstance(node, ast.Call):
                continue
            reason = _blocking_reason(node.func, sleep_aliases)
            if reason is not None:
                findings.append(
                    Finding(
                        rule="blocking-call-in-async",
                        message=f"async def {func.name!r} calls {reason}, "
                        "which blocks the event loop; use an async "
                        "equivalent or run it in a thread",
                        line=node.lineno,
                        source=path,
                    )
                )
    return findings


def _blocking_reason(func: ast.expr, sleep_aliases) -> Optional[str]:
    if isinstance(func, ast.Name):
        if func.id in _BLOCKING_BUILTINS:
            return f"{func.id}()"
        if func.id in sleep_aliases:
            return "time.sleep()"
        return None
    if isinstance(func, ast.Attribute):
        root = func
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name):
            if root.id == "time" and func.attr == "sleep":
                return "time.sleep()"
            if root.id == "os" and func.attr == "system":
                return "os.system()"
            if root.id in _BLOCKING_MODULES:
                return f"{root.id}.{func.attr}()"
    return None
