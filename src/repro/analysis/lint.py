"""A repo-wide custom linter with project-specific rules.

Run as ``python -m repro.analysis.lint src/ tests/``. Exit status is 0
when the tree is clean and 1 when any finding survives suppression.

Rules (each individually suppressible with ``# repro: noqa[RULE]`` on
the offending line):

* ``mutable-default``      — a list/dict/set display or constructor call
  as a default argument value;
* ``bare-except``          — ``except:`` with no exception class;
* ``future-annotations``   — a module that uses annotations without
  ``from __future__ import annotations`` (``__init__.py`` re-export
  modules are exempt);
* ``numpy-random``         — direct ``np.random``/``numpy.random`` calls
  outside ``utils/rng.py`` (all *library* randomness must flow through
  :class:`~repro.utils.rng.SeededRNG` for reproducibility; tests and
  benchmarks may build fixture arrays directly and are exempt);
* ``exec-eval``            — ``exec()``/``eval()`` calls outside the
  CodexDB sandbox module (the one audited place allowed to run
  generated code);
* ``wall-clock``           — direct ``time.sleep``/``time.monotonic``
  calls outside ``reliability/clock.py`` (all waiting and timeout logic
  must flow through a :class:`~repro.reliability.clock.Clock` so it is
  testable on a virtual clock);
* ``atomic-write``         — ``open()``/``.open()`` in a
  write/append/create mode, or ``.write_text()``/``.write_bytes()``,
  outside ``repro/durability/`` (file writes must go through the atomic
  temp-file + fsync + rename helpers of :mod:`repro.durability.io` so a
  crash can never leave a torn file; tests and benchmarks are exempt);
* ``per-prompt-loop``      — a ``.complete()`` or ``.read()`` call
  inside a loop (or comprehension) in the application subsystems
  (``codexdb``, ``text2sql``, ``wrangle``, ``neuraldb``); hot
  per-prompt loops should batch through the client's ``complete_batch``
  (or the reader's ``read_batch``) so prompts share vectorized model
  forwards;
* ``concat-in-loop``       — ``np.concatenate`` inside a loop (or
  comprehension) in the model/serving hot paths (``nn``,
  ``generation``, ``serving``, ``models``); growing an array by
  concatenation per iteration is O(n²) traffic — write into an array
  preallocated at its final size (as :meth:`repro.models.GPTModel.init_cache`
  does for K/V) and suppress the rare amortized concat explicitly;
* ``unused-import``        — a module-level import whose name the module
  never reads, under ``src/`` (``__init__.py`` re-export modules,
  ``__future__`` imports and names listed in ``__all__`` are exempt);
* ``slow-pow``             — ``x ** n`` with an integer literal ``n >= 3``
  in the numeric hot paths (``autograd``, ``nn``, ``models``,
  ``serving``, ``training``); numpy squares ``** 2`` in a fast path but
  sends higher integer powers of a mixed-sign array through libm
  ``pow``, 50 to 70 times slower than ``x * x * x``;
* ``shared-state-mutation`` — an ``async def`` writes a ``self.*``
  attribute (assignment, augmented assignment, subscript store, or a
  mutating container-method call); between any two awaits another task
  can observe the half-updated object, so the write must be guarded or
  confined to task-local state (gates the upcoming async gateway;
  today's single-threaded serving code has no async defs and is
  vacuously clean);
* ``blocking-call-in-async`` — an ``async def`` calls something that
  blocks the event loop (``time.sleep``, ``open``, ``input``,
  ``subprocess.*``, ``os.system``, ``requests.*``).

Both concurrency rules are implemented in
:mod:`repro.analysis.concurrency`, which also produces the
machine-readable shared-state report behind ``--shared-state``.

CLI flags: ``--format json`` emits findings as a JSON array (stable
CI-diffable ordering by path, then line, then rule — the same order as
text output); ``--rules a,b`` lints only the named rules;
``--shared-state`` prints the shared-state inventory for the given
paths as JSON instead of linting.
"""

from __future__ import annotations

import ast
import json
import re
import sys
from pathlib import Path
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.concurrency import concurrency_findings, shared_state_report
from repro.analysis.findings import Finding

RULE_NAMES = (
    "mutable-default",
    "bare-except",
    "future-annotations",
    "numpy-random",
    "exec-eval",
    "wall-clock",
    "atomic-write",
    "per-prompt-loop",
    "concat-in-loop",
    "slow-pow",
    "unused-import",
    "shared-state-mutation",
    "blocking-call-in-async",
)

#: files allowed to break one specific rule, by path suffix
_RULE_EXEMPT_SUFFIXES = {
    "numpy-random": ("utils/rng.py",),
    "exec-eval": ("codexdb/sandbox.py",),
    "wall-clock": ("reliability/clock.py",),
}

#: directories (path components) exempt from one specific rule
_RULE_EXEMPT_DIRS = {
    "numpy-random": ("tests", "benchmarks"),
    "atomic-write": ("durability", "tests", "benchmarks", "examples"),
}

#: directories (path components) a rule applies to *exclusively*
_RULE_ONLY_DIRS = {
    "per-prompt-loop": ("codexdb", "text2sql", "wrangle", "neuraldb"),
    "concat-in-loop": ("nn", "generation", "serving", "models"),
    "slow-pow": ("autograd", "nn", "models", "serving", "training"),
    "unused-import": ("src",),
}

_NOQA_PATTERN = re.compile(r"#\s*repro:\s*noqa\[([a-z\-,\s]+)\]")

_MUTABLE_CONSTRUCTORS = ("list", "dict", "set")


def lint_source(
    code: str,
    path: str = "<string>",
    rules: Optional[FrozenSet[str]] = None,
) -> List[Finding]:
    """Lint one module's source; suppressed findings are dropped.

    ``rules`` restricts the checks to the named subset (``None`` means
    all of :data:`RULE_NAMES`); syntax errors are always reported.
    """
    try:
        tree = ast.parse(code)
    except SyntaxError as exc:
        return [
            Finding(
                rule="syntax",
                message=f"module does not parse: {exc.msg}",
                line=exc.lineno or 0,
                source=path,
            )
        ]
    enabled = frozenset(RULE_NAMES) if rules is None else rules
    findings: List[Finding] = []
    findings += _check_mutable_defaults(tree, path)
    findings += _check_bare_except(tree, path)
    findings += _check_future_annotations(tree, path)
    if not _exempt(path, "numpy-random"):
        findings += _check_numpy_random(tree, path)
    if not _exempt(path, "exec-eval"):
        findings += _check_exec_eval(tree, path)
    if not _exempt(path, "wall-clock"):
        findings += _check_wall_clock(tree, path)
    if not _exempt(path, "atomic-write"):
        findings += _check_atomic_write(tree, path)
    if _applies(path, "per-prompt-loop"):
        findings += _check_per_prompt_loop(tree, path)
    if _applies(path, "concat-in-loop"):
        findings += _check_concat_in_loop(tree, path)
    if _applies(path, "slow-pow"):
        findings += _check_slow_pow(tree, path)
    if _applies(path, "unused-import") and not path.endswith("__init__.py"):
        findings += _check_unused_imports(tree, path)
    findings += concurrency_findings(tree, path)
    suppressed = _suppressions(code)
    return sorted(
        (
            f
            for f in findings
            if f.rule in enabled
            and (f.line, f.rule) not in suppressed
            and (f.line, "*") not in suppressed
        ),
        key=lambda f: (f.line, f.rule),
    )


def lint_paths(
    paths: Sequence[Path], rules: Optional[FrozenSet[str]] = None
) -> List[Finding]:
    """Lint every ``*.py`` file under the given files/directories.

    Findings come back stably sorted by (path, line, rule) so repeated
    runs diff cleanly in CI.
    """
    findings: List[Finding] = []
    for path in _python_files(paths):
        findings += lint_source(
            path.read_text(encoding="utf-8"), path=str(path), rules=rules
        )
    return sorted(findings, key=lambda f: (f.source or "", f.line, f.rule))


def _python_files(paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


def _exempt(path: str, rule: str) -> bool:
    normalized = path.replace("\\", "/")
    if any(
        normalized.endswith(suffix)
        for suffix in _RULE_EXEMPT_SUFFIXES.get(rule, ())
    ):
        return True
    parts = normalized.split("/")
    return any(d in parts for d in _RULE_EXEMPT_DIRS.get(rule, ()))


def _applies(path: str, rule: str) -> bool:
    """True when a directory-scoped rule covers ``path`` at all."""
    only = _RULE_ONLY_DIRS.get(rule)
    if only is None:
        return True
    parts = path.replace("\\", "/").split("/")
    return any(d in parts for d in only)


def _suppressions(code: str) -> set:
    """(line, rule) pairs silenced by ``# repro: noqa[rule, ...]``."""
    suppressed = set()
    for lineno, line in enumerate(code.splitlines(), start=1):
        match = _NOQA_PATTERN.search(line)
        if match:
            for rule in match.group(1).split(","):
                suppressed.add((lineno, rule.strip()))
    return suppressed


# -- rules -----------------------------------------------------------------
def _check_mutable_defaults(tree: ast.Module, path: str) -> List[Finding]:
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_value(default):
                findings.append(
                    Finding(
                        rule="mutable-default",
                        message=f"function {node.name!r} has a mutable "
                        "default argument (shared across calls); use None "
                        "and create it in the body",
                        line=default.lineno,
                        source=path,
                    )
                )
    return findings


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CONSTRUCTORS
    )


def _check_bare_except(tree: ast.Module, path: str) -> List[Finding]:
    return [
        Finding(
            rule="bare-except",
            message="bare 'except:' swallows SystemExit/KeyboardInterrupt; "
            "name the exception class",
            line=node.lineno,
            source=path,
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and node.type is None
    ]


def _check_future_annotations(tree: ast.Module, path: str) -> List[Finding]:
    if Path(path).name == "__init__.py":
        return []
    if not _uses_annotations(tree):
        return []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            if any(alias.name == "annotations" for alias in node.names):
                return []
    return [
        Finding(
            rule="future-annotations",
            message="module uses annotations without "
            "'from __future__ import annotations'",
            line=1,
            source=path,
        )
    ]


def _uses_annotations(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                return True
            all_args = (
                node.args.args
                + node.args.posonlyargs
                + node.args.kwonlyargs
                + [a for a in (node.args.vararg, node.args.kwarg) if a]
            )
            if any(arg.annotation is not None for arg in all_args):
                return True
    return False


def _check_numpy_random(tree: ast.Module, path: str) -> List[Finding]:
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _is_numpy_random_attr(node.func):
            findings.append(
                Finding(
                    rule="numpy-random",
                    message="direct numpy.random call; route randomness "
                    "through repro.utils.rng.SeededRNG",
                    line=node.lineno,
                    source=path,
                )
            )
    return findings


def _is_numpy_random_attr(node: ast.expr) -> bool:
    """True for attribute chains passing through ``np.random``."""
    while isinstance(node, ast.Attribute):
        if (
            node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            return True
        node = node.value
    return False


def _check_exec_eval(tree: ast.Module, path: str) -> List[Finding]:
    return [
        Finding(
            rule="exec-eval",
            message=f"{node.func.id}() outside the sandbox module; only "
            "repro.codexdb.sandbox may run dynamic code",
            line=node.lineno,
            source=path,
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("exec", "eval")
    ]


_WALL_CLOCK_NAMES = ("sleep", "monotonic")


def _check_wall_clock(tree: ast.Module, path: str) -> List[Finding]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _WALL_CLOCK_NAMES:
                    imported.add(alias.asname or alias.name)
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        direct = (
            isinstance(func, ast.Attribute)
            and func.attr in _WALL_CLOCK_NAMES
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        )
        via_import = isinstance(func, ast.Name) and func.id in imported
        if direct or via_import:
            findings.append(
                Finding(
                    rule="wall-clock",
                    message="direct wall-clock call; route sleeps and "
                    "timeouts through repro.reliability.clock so they run "
                    "on a virtual clock in tests",
                    line=node.lineno,
                    source=path,
                )
            )
    return findings


def _check_atomic_write(tree: ast.Module, path: str) -> List[Finding]:
    """Flag non-atomic file writes.

    Catches ``open()``/``.open()`` calls whose mode writes, appends, or
    creates, plus the ``Path.write_text``/``Path.write_bytes`` shortcuts
    — every one replaces a file non-atomically, so a crash mid-write can
    leave a torn file behind.
    """
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "write_text",
            "write_bytes",
        ):
            findings.append(
                Finding(
                    rule="atomic-write",
                    message=f".{func.attr}(...) replaces the file "
                    "non-atomically; route file writes through the atomic "
                    "temp-file + fsync + rename helpers in "
                    "repro.durability.io",
                    line=node.lineno,
                    source=path,
                )
            )
            continue
        is_open = isinstance(func, ast.Name) and func.id == "open"
        is_method_open = isinstance(func, ast.Attribute) and func.attr == "open"
        if not (is_open or is_method_open):
            continue
        mode = None
        position = 1 if is_open else 0  # Path.open takes mode first
        if len(node.args) > position:
            mode = node.args[position]
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and any(flag in mode.value for flag in "wax+")
        ):
            findings.append(
                Finding(
                    rule="atomic-write",
                    message=f"open(..., {mode.value!r}) writes without "
                    "crash safety; route file writes through the atomic "
                    "temp-file + fsync + rename helpers in "
                    "repro.durability.io",
                    line=node.lineno,
                    source=path,
                )
            )
    return findings


_LOOP_NODES = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


#: per-generation methods the rule flags, with the batched alternative
#: the message points at.
_PER_PROMPT_CALLS = {
    "complete": "the client's complete_batch",
    "read": "the reader's read_batch",
}


def _check_per_prompt_loop(tree: ast.Module, path: str) -> List[Finding]:
    """Flag per-prompt ``.complete()``/``.read()`` calls inside loops."""
    seen = set()
    findings = []
    for loop in ast.walk(tree):
        if not isinstance(loop, _LOOP_NODES):
            continue
        for node in ast.walk(loop):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _PER_PROMPT_CALLS
            ):
                continue
            key = (node.lineno, node.col_offset)
            if key in seen:
                # Nested loops walk the same call twice; report it once.
                continue
            seen.add(key)
            batched = _PER_PROMPT_CALLS[node.func.attr]
            findings.append(
                Finding(
                    rule="per-prompt-loop",
                    message=f"per-prompt {node.func.attr}() call inside "
                    f"a loop; batch it through {batched} so prompts "
                    "share vectorized model forwards",
                    line=node.lineno,
                    source=path,
                )
            )
    return findings


def _check_concat_in_loop(tree: ast.Module, path: str) -> List[Finding]:
    """Flag ``np.concatenate`` calls issued from inside a loop.

    The pattern this catches is the per-token KV-cache growth bug:
    appending one column per decode step via concatenation copies the
    whole array every iteration. Loop-*carried* concatenation that is
    genuinely amortized (once per admission wave, not per token) must
    say so with ``# repro: noqa[concat-in-loop]``.
    """
    seen = set()
    findings = []
    for loop in ast.walk(tree):
        if not isinstance(loop, _LOOP_NODES):
            continue
        for node in ast.walk(loop):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "concatenate"
            ):
                continue
            key = (node.lineno, node.col_offset)
            if key in seen:
                # Nested loops walk the same call twice; report it once.
                continue
            seen.add(key)
            findings.append(
                Finding(
                    rule="concat-in-loop",
                    message="np.concatenate inside a loop copies the whole "
                    "array per iteration (O(n²) traffic); write into an "
                    "array preallocated at its final size instead",
                    line=node.lineno,
                    source=path,
                )
            )
    return findings


def _check_slow_pow(tree: ast.Module, path: str) -> List[Finding]:
    """Flag ``** n`` (and ``**= n``) with an integer literal ``n >= 3``."""
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            op, exponent = node.op, node.right
        elif isinstance(node, ast.AugAssign):
            op, exponent = node.op, node.value
        else:
            continue
        if not (
            isinstance(op, ast.Pow)
            and isinstance(exponent, ast.Constant)
            and type(exponent.value) is int
            and exponent.value >= 3
        ):
            continue
        findings.append(
            Finding(
                rule="slow-pow",
                message=f"'** {exponent.value}' on a numpy array runs libm pow, "
                "far slower than repeated multiplication; write x * x * x",
                line=node.lineno,
                source=path,
            )
        )
    return findings


def _check_unused_imports(tree: ast.Module, path: str) -> List[Finding]:
    imported: List[Tuple[str, int]] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [
                (alias.asname or alias.name.split(".")[0], node.lineno)
                for alias in node.names
            ]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [
                (alias.asname or alias.name, node.lineno)
                for alias in node.names
                if alias.name != "*"
            ]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for node in tree.body:  # names re-exported through ``__all__``
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [
        Finding(
            rule="unused-import",
            message=f"'{name}' is imported but never used",
            line=line,
            source=path,
        )
        for name, line in imported
        if name not in read
    ]


# -- CLI -------------------------------------------------------------------
_USAGE = (
    "usage: python -m repro.analysis.lint [--format text|json] "
    "[--rules a,b] [--shared-state] <path> [<path> ...]"
)


def main(argv: Optional[Iterable[str]] = None) -> int:
    """Lint the given paths (default: the process's own arguments);
    print findings and return the exit status."""
    raw = sys.argv[1:] if argv is None else list(argv)
    fmt = "text"
    rules: Optional[FrozenSet[str]] = None
    want_shared_state = False
    positional: List[str] = []
    i = 0
    while i < len(raw):
        arg = raw[i]
        if arg == "--format":
            if i + 1 >= len(raw) or raw[i + 1] not in ("text", "json"):
                print(_USAGE)
                return 2
            fmt = raw[i + 1]
            i += 2
        elif arg == "--rules":
            if i + 1 >= len(raw):
                print(_USAGE)
                return 2
            requested = frozenset(
                name.strip() for name in raw[i + 1].split(",") if name.strip()
            )
            unknown = requested - frozenset(RULE_NAMES)
            if unknown or not requested:
                print(f"unknown rule(s): {', '.join(sorted(unknown)) or '(none given)'}")
                print(f"known rules: {', '.join(RULE_NAMES)}")
                return 2
            rules = requested
            i += 1 + 1
        elif arg == "--shared-state":
            want_shared_state = True
            i += 1
        elif arg.startswith("-"):
            print(_USAGE)
            return 2
        else:
            positional.append(arg)
            i += 1
    if not positional:
        print(_USAGE)
        return 2
    paths = [Path(p) for p in positional]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"no such path(s): {', '.join(map(str, missing))}")
        return 2
    if want_shared_state:
        print(json.dumps(shared_state_report(paths), indent=2, sort_keys=True))
        return 0
    findings = lint_paths(paths, rules=rules)
    if fmt == "json":
        print(
            json.dumps(
                [
                    {
                        "path": f.source,
                        "line": f.line,
                        "rule": f.rule,
                        "severity": f.severity,
                        "message": f.message,
                    }
                    for f in findings
                ],
                indent=2,
            )
        )
        return 1 if findings else 0
    for finding in findings:
        print(finding.render())
    checked = len(_python_files(paths))
    status = "clean" if not findings else f"{len(findings)} finding(s)"
    print(f"repro-lint: {checked} file(s) checked, {status}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
