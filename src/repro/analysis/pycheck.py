"""Static safety and correctness analysis for generated Python programs.

CodexDB executes model-generated code, and the CodexDB paper stresses
that such code must be vetted *before* it touches data. This pass
parses the program (never executing it), lowers it to a control-flow
graph via :mod:`repro.analysis.dataflow`, and rejects:

* imports outside a small allowlist (``time``, ``math``,
  ``collections``, ``itertools``) — only when the import is reachable;
* sandbox-escape attribute chains (``__class__``, ``__globals__``,
  ``__subclasses__``, ...) in reachable code;
* *reachable, unshadowed* uses of introspection/IO builtins
  (``getattr``, ``eval``, ``exec``, ``open``, ...) — a program that
  assigns its own ``open = 0`` counter, or mentions ``eval`` only in a
  branch that can never run, is accepted;
* taint flows from sandbox inputs (``tables``) into dangerous sink
  arguments (:data:`TAINT_SINKS`), including flows through aliases of
  banned builtins (``g = getattr; g(...)``);
* loops that provably cannot terminate (``unbounded-loop`` errors) —
  beyond literal ``while True``, this catches conditions whose names
  the body never mutates and iteration over infinite ``itertools``
  constructors. Loops that *might* be unbounded get an
  ``unbounded-work`` warning that the sandbox converts into a fuel
  limit instead of a rejection;
* reads of names that are not definitely assigned in their scope
  (``use-before-def``), with proper scoping — a name bound only inside
  a nested ``def`` is *not* visible at module level;
* programs that do not assign the ``result``/``columns`` output
  contract on every normally-completing path (path-sensitive: a
  ``try``/``except`` where both arms assign ``result`` satisfies it).

Findings carry a severity: ``"error"`` findings block the artifact,
``"warning"`` findings (``unreachable-code``, ``unbounded-work``) are
advisory. :func:`assert_safe` raises only when errors are present and
attaches the full finding list for callers that want the warnings.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.analysis.dataflow import ProgramReport, analyze_program
from repro.analysis.findings import (
    Finding,
    error_findings,
    render_findings,
)
from repro.errors import StaticAnalysisError

#: modules generated programs may import (consulted by the sandbox's
#: guarded importer as well)
IMPORT_ALLOWLIST: FrozenSet[str] = frozenset(
    {"time", "math", "collections", "itertools"}
)

#: dunder attributes that open sandbox escapes via object introspection
BANNED_ATTRIBUTES: FrozenSet[str] = frozenset(
    {
        "__class__", "__globals__", "__subclasses__", "__bases__",
        "__mro__", "__code__", "__closure__", "__func__", "__self__",
        "__builtins__", "__getattribute__", "__dict__", "__init__",
        "__reduce__", "__reduce_ex__",
    }
)

#: builtins that defeat static vetting when actually used (dynamic
#: attribute access, code execution, file IO); reachable unshadowed
#: loads are errors, and values aliasing them carry a danger taint
BANNED_NAMES: FrozenSet[str] = frozenset(
    {
        "getattr", "setattr", "delattr", "eval", "exec", "compile",
        "open", "input", "vars", "globals", "locals", "__import__",
        "breakpoint", "exit", "quit",
    }
)

#: names whose values are untrusted at program entry (sandbox inputs;
#: generated programs receive the user's tables through ``tables``)
TAINT_SOURCES: FrozenSet[str] = frozenset({"tables"})

#: dangerous sinks: callable name -> positional argument indices that
#: must not receive untrusted data (attribute names for ``getattr``
#: family, code payloads for ``eval``/``exec``/``compile``, module
#: names for ``__import__``, paths for ``open``)
TAINT_SINKS: Dict[str, Tuple[int, ...]] = {
    "getattr": (1,),
    "setattr": (1,),
    "delattr": (1,),
    "eval": (0,),
    "exec": (0,),
    "compile": (0,),
    "__import__": (0,),
    "open": (0,),
}

#: names the sandbox provides to generated programs (safe builtins plus
#: the ``tables`` input binding)
DEFAULT_KNOWN_NAMES: FrozenSet[str] = frozenset(
    {
        "len", "sum", "min", "max", "sorted", "list", "dict", "set",
        "tuple", "str", "int", "float", "bool", "range", "enumerate",
        "zip", "abs", "round", "True", "False", "None", "tables",
    }
)

#: variables a generated program must leave behind
OUTPUT_CONTRACT = ("result", "columns")


def check_python(
    code: str,
    known_names: Iterable[str] = DEFAULT_KNOWN_NAMES,
) -> List[Finding]:
    """Analyze ``code`` and return all findings (no errors means safe).

    The returned list mixes ``"error"`` and ``"warning"`` severities;
    use :func:`repro.analysis.findings.error_findings` (or
    :func:`assert_safe`) to decide acceptance.
    """
    try:
        tree = ast.parse(code, mode="exec")
    except SyntaxError as exc:
        return [
            Finding(
                rule="syntax",
                message=f"program does not parse: {exc.msg}",
                line=exc.lineno or 0,
            )
        ]
    report = analyze_program(
        tree,
        known=frozenset(known_names),
        banned=BANNED_NAMES,
        taint_sources=TAINT_SOURCES,
        taint_sinks=TAINT_SINKS,
    )
    findings = list(report.findings)
    findings.extend(_check_imports(tree, report.reachable_lines))
    findings.extend(_check_attributes(tree, report.reachable_lines))
    findings.extend(_check_contract(report))
    return sorted(findings, key=lambda f: (f.line, f.rule, f.message))


def assert_safe(code: str) -> List[Finding]:
    """Raise :class:`StaticAnalysisError` if ``code`` has error findings.

    Warning-severity findings do not block; they are returned so callers
    (e.g. the sandbox's fuel policy) can act on them.
    """
    findings = check_python(code)
    errors = error_findings(findings)
    if errors:
        raise StaticAnalysisError(
            "generated program rejected by static analysis:\n"
            + render_findings(errors),
            findings=findings,
        )
    return findings


# -- syntactic passes, gated by CFG reachability ---------------------------
def _check_imports(tree: ast.Module, reachable_lines: Set[int]) -> List[Finding]:
    findings = []
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) not in reachable_lines:
            continue  # dead code cannot import anything
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root not in IMPORT_ALLOWLIST:
                    findings.append(
                        Finding(
                            rule="banned-import",
                            message=f"import of {alias.name!r} is not allowed "
                            f"(allowlist: {sorted(IMPORT_ALLOWLIST)})",
                            line=node.lineno,
                        )
                    )
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if node.level or root not in IMPORT_ALLOWLIST:
                findings.append(
                    Finding(
                        rule="banned-import",
                        message=f"import from {node.module or '.'!r} is not "
                        f"allowed (allowlist: {sorted(IMPORT_ALLOWLIST)})",
                        line=node.lineno,
                    )
                )
    return findings


def _check_attributes(
    tree: ast.Module, reachable_lines: Set[int]
) -> List[Finding]:
    return [
        Finding(
            rule="banned-attribute",
            message=f"access to attribute {node.attr!r} can escape the sandbox",
            line=node.lineno,
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in BANNED_ATTRIBUTES
        and node.lineno in reachable_lines
    ]


def _check_contract(report: ProgramReport) -> List[Finding]:
    assigned = report.definitely_assigned_at_exit
    if assigned is None:
        # the program cannot complete normally (every path raises):
        # nothing is ever left behind
        assigned = frozenset()
    return [
        Finding(
            rule="output-contract",
            message=f"variable {name!r} is not assigned on every path",
        )
        for name in OUTPUT_CONTRACT
        if name not in assigned
    ]
