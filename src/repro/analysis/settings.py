"""Settings no caller sets: defaults that only ever take their default.

A setting is a defaulted parameter or ``@dataclass`` field under
``ROOT/src``. A call under ``src/``, ``examples/``, ``benchmarks/`` or
``e2ebench/`` sets it when the callee's final name matches (the class
name for ``__init__`` and fields) and the call passes it by keyword, by
position or through ``**kwargs``; a ``super().__init__(…)`` call inside
class ``C`` is a call of each of ``C``'s base classes. Test calls are
only counted, and a test wrapper that forwards ``**kwargs`` (such as
``open_store``) is not followed, so the test-call count can be too low.
Exempt: ``*Stats`` classes, and fields that ``src/`` writes after
construction (state, not settings). Matching by name can miss an unset
setting but never flags one that a matched call sets.

``python -m repro.analysis.settings [ROOT]`` prints the report; it exits
1 on a finding missing from ``EXCEPTIONS`` in ``ROOT/tests/test_settings.py``
or a listed entry no longer found, as that tier-1 test fails.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Set

from repro.analysis.findings import Finding
from repro.analysis.lint import _python_files

CALLER_DIRS = ("src", "examples", "benchmarks", "e2ebench")
EXCEPTIONS_FILE = Path("tests", "test_settings.py")


class _Setting(NamedTuple):
    key: str  # module.Qualname.param
    callee: str
    param: str
    index: Optional[int]  # positional index; None when keyword-only
    line: int
    source: str


def unset_settings(root: Path) -> Dict[str, Finding]:
    """Every setting under ``root/src`` that no caller outside tests sets."""
    trees = {path: _parse(path) for path in _python_files([root / "src"])}
    written = set().union(*(_writes(tree, skip_self=True) for tree in trees.values()))
    settings: List[_Setting] = []
    for path, tree in trees.items():
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        settings += _collect(tree.body, module.removesuffix(".__init__"), None, written, str(path))
    calls, tests = _calls([root / d for d in CALLER_DIRS]), _calls([root / "tests"])
    found: Dict[str, Finding] = {}
    for s in settings:
        if not any(_sets(c, s) for c in calls.get(s.callee, ())):
            by_tests = sum(_sets(c, s) for c in tests.get(s.callee, ()))
            message = f"{s.key} has no caller that sets it; {by_tests} test call(s) do"
            found[s.key] = Finding("unset-setting", message, s.line, s.source)
    return found


def _collect(
    body, prefix: str, cls: Optional[ast.ClassDef], written: Set[str], source: str
) -> List[_Setting]:
    found: List[_Setting] = []
    for node in body:
        if isinstance(node, ast.ClassDef) and not node.name.endswith("Stats"):
            qual = f"{prefix}.{node.name}"
            if "dataclass" in map(_name, node.decorator_list):
                state = written | _writes(node, skip_self=False)
                fields = [
                    s for s in node.body
                    if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                ]
                found += [
                    _Setting(f"{qual}.{s.target.id}", node.name, s.target.id, i, s.lineno, source)
                    for i, s in enumerate(fields)
                    if s.value is not None and s.target.id not in state
                ]
            found += _collect(node.body, qual, node, written, source)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{prefix}.{node.name}"
            callee = cls.name if cls and node.name == "__init__" else node.name
            args = node.args
            positional = args.posonlyargs + args.args
            if cls and "staticmethod" not in map(_name, node.decorator_list):
                positional = positional[1:]  # self / cls
            first_default = len(positional) - len(args.defaults)
            params = [(a, i) for i, a in enumerate(positional) if i >= first_default]
            params += [(a, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            found += [
                _Setting(f"{qual}.{a.arg}", callee, a.arg, i, node.lineno, source)
                for a, i in params
            ]
            found += _collect(node.body, qual, None, written, source)
    return found


def _calls(paths: Sequence[Path]) -> Dict[str, List[ast.Call]]:
    """Every call under ``paths``, grouped by the callee's final name.

    ``super().__init__(…)`` in a class's method also counts as a call of
    each base class.
    """
    calls: Dict[str, List[ast.Call]] = {}
    for path in _python_files([p for p in paths if p.exists()]):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call) and _name(node.func):
                calls.setdefault(_name(node.func), []).append(node)
            elif isinstance(node, ast.ClassDef):
                methods = [s for s in node.body if isinstance(s, ast.FunctionDef)]
                for call in (c for m in methods for c in ast.walk(m)):
                    if _is_super_init(call):
                        for base in node.bases:
                            calls.setdefault(_name(base), []).append(call)
    return calls


def _is_super_init(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__init__"
        and _name(node.func.value) == "super"
    )


def _sets(call: ast.Call, setting: _Setting) -> bool:
    if any(kw.arg in (None, setting.param) for kw in call.keywords):
        return True
    return setting.index is not None and (
        len(call.args) > setting.index or any(isinstance(a, ast.Starred) for a in call.args)
    )


def _name(node: ast.expr) -> str:
    """Final name of a callee or decorator: ``f``, ``a.b.f`` and ``f(...)`` give ``f``."""
    node = node.func if isinstance(node, ast.Call) else node
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _writes(tree: ast.AST, skip_self: bool) -> Set[str]:
    """Names ``f`` of ``x.f = …``, ``x.f += …``, ``x.f[k] = …`` and ``x.f.append(…)``."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            node = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            node = node.func.value
        elif not isinstance(getattr(node, "ctx", None), ast.Store):
            continue
        if isinstance(node, ast.Attribute) and not (skip_self and _name(node.value) == "self"):
            names.add(node.attr)
    return names


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def main(argv: Sequence[str]) -> int:
    """Print the report for the repository root ``argv[0]`` (default ``.``)."""
    root = Path(argv[0] if argv else ".")
    found = unset_settings(root)
    listed: Dict[str, str] = {}
    if (root / EXCEPTIONS_FILE).exists():
        for node in _parse(root / EXCEPTIONS_FILE).body:
            if isinstance(node, ast.Assign) and "EXCEPTIONS" in map(_name, node.targets):
                listed = ast.literal_eval(node.value)
    stale = sorted(set(listed) - set(found))
    for key, finding in sorted(found.items()):
        print(f"{finding.render()} [{listed.get(key, 'UNLISTED')}]")
    for key in stale:
        print(f"stale exception (now set, or gone): {key}")
    unlisted = len(set(found) - set(listed))
    backlog = sum(listed.get(key) == "backlog" for key in found)
    justified = len(found) - backlog - unlisted
    print(f"repro-settings: {len(found)} unset setting(s), {backlog} on the backlog, "
          f"{justified} justified, {unlisted} unlisted, {len(stale)} stale")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
