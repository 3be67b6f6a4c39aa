"""Golden corpus of generated-program fixtures for the vetting pipeline.

Each :class:`Fixture` is one small program of the kind CodexDB's code
generator (or a model behind it) might emit, labeled with the ground
truth — ``safe=True`` programs must be accepted by
:func:`repro.analysis.pycheck.check_python` (no error-severity
findings), ``safe=False`` programs must be rejected with exactly the
error rules in ``expect_rules``. Several benign fixtures (dead
branches, shadowed builtins, a contract assigned on both ``try``
arms) are there because a flow-insensitive mention-ban checker once
rejected them; the flow-sensitive pipeline must accept them.

The fixtures live as string constants rather than ``.py`` files on
purpose: several deliberately contain ``eval``/``open``/infinite loops,
and the repo-wide lint gate must not see them as first-class source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class Fixture:
    """One labeled generated-program sample."""

    name: str
    code: str
    safe: bool
    #: error rules the new pipeline must report (exactly); empty for safe
    expect_rules: Tuple[str, ...] = ()


FIXTURES: Tuple[Fixture, ...] = (
    # -- programs that must be rejected ------------------------------------
    Fixture(
        name="escape-class-chain",
        code=(
            "result = ().__class__.__bases__[0].__subclasses__()\n"
            'columns = ["cls"]\n'
        ),
        safe=False,
        expect_rules=("banned-attribute",),
    ),
    Fixture(
        name="import-os",
        code=(
            "import os\n"
            "result = [os.getcwd()]\n"
            'columns = ["cwd"]\n'
        ),
        safe=False,
        expect_rules=("banned-import",),
    ),
    Fixture(
        name="getattr-alias",
        code=(
            "g = getattr\n"
            'result = [g(tables, "clear")]\n'
            'columns = ["x"]\n'
        ),
        safe=False,
        expect_rules=("banned-call",),
    ),
    Fixture(
        name="taint-to-getattr",
        code=(
            'name = tables["t"][0][0]\n'
            "result = [getattr([], name)]\n"
            'columns = ["x"]\n'
        ),
        safe=False,
        expect_rules=("banned-call", "taint-flow"),
    ),
    Fixture(
        name="taint-to-import",
        code=(
            'mod = __import__(tables["t"][0][0])\n'
            "result = [mod]\n"
            'columns = ["m"]\n'
        ),
        safe=False,
        expect_rules=("banned-call", "taint-flow"),
    ),
    Fixture(
        name="while-true-no-break",
        code=(
            "total = 0\n"
            "while True:\n"
            "    total = total + 1\n"
            "result = [total]\n"
            'columns = ["total"]\n'
        ),
        safe=False,
        # the trailing result/columns assignments sit *after* a loop
        # that never exits, so the contract is also unmet
        expect_rules=("unbounded-loop", "output-contract"),
    ),
    Fixture(
        name="frozen-while-cond",
        code=(
            "n = 5\n"
            "total = 0\n"
            "while n > 0:\n"
            "    total = total + 1\n"
            "result = [total]\n"
            'columns = ["total"]\n'
        ),
        safe=False,
        expect_rules=("unbounded-loop",),
    ),
    Fixture(
        name="itertools-count-loop",
        code=(
            "import itertools\n"
            "total = 0\n"
            "for i in itertools.count():\n"
            "    total = total + i\n"
            "result = [total]\n"
            'columns = ["t"]\n'
        ),
        safe=False,
        expect_rules=("unbounded-loop",),
    ),
    Fixture(
        name="nested-break-only-exits-inner",
        code=(
            "total = 0\n"
            "while True:\n"
            '    for row in tables["t"]:\n'
            "        break\n"
            "    total = total + 1\n"
            "result = [total]\n"
            'columns = ["total"]\n'
        ),
        safe=False,
        # the break only exits the inner for; nothing after the while
        # ever runs, so the contract is also unmet
        expect_rules=("unbounded-loop", "output-contract"),
    ),
    Fixture(
        name="use-before-def",
        code=(
            "if len(tables) > 0:\n"
            "    x = 1\n"
            "result = [x]\n"
            'columns = ["x"]\n'
        ),
        safe=False,
        expect_rules=("use-before-def",),
    ),
    Fixture(
        name="nested-def-name-leak",
        code=(
            "def helper():\n"
            "    inner = [1]\n"
            "    return inner\n"
            "result = inner\n"
            'columns = ["x"]\n'
        ),
        safe=False,
        expect_rules=("unknown-name",),
    ),
    Fixture(
        name="contract-missing-branch",
        code=(
            "if len(tables) > 0:\n"
            '    result = list(tables["t"])\n'
            'columns = ["a"]\n'
        ),
        safe=False,
        expect_rules=("output-contract",),
    ),
    Fixture(
        name="open-call",
        code=(
            'rows = open("/etc/passwd")\n'
            "result = [rows]\n"
            'columns = ["x"]\n'
        ),
        safe=False,
        expect_rules=("banned-call",),
    ),
    Fixture(
        name="exec-payload",
        code=(
            'exec("result = 1")\n'
            "result = [1]\n"
            'columns = ["x"]\n'
        ),
        safe=False,
        expect_rules=("banned-call",),
    ),
    Fixture(
        name="from-subprocess-import",
        code=(
            "from subprocess import run\n"
            'result = [run("true")]\n'
            'columns = ["x"]\n'
        ),
        safe=False,
        expect_rules=("banned-import",),
    ),
    # -- programs that must be accepted ------------------------------------
    Fixture(
        name="dead-branch-eval",
        code=(
            'rows = tables["t"]\n'
            "if False:\n"
            '    result = eval("1")\n'
            "result = [row for row in rows]\n"
            'columns = ["a"]\n'
        ),
        safe=True,
    ),
    Fixture(
        name="shadowed-open",
        code=(
            "open = 0\n"
            'for row in tables["t"]:\n'
            "    open = open + 1\n"
            "result = [open]\n"
            'columns = ["n"]\n'
        ),
        safe=True,
    ),
    Fixture(
        name="contract-try-both-arms",
        code=(
            "try:\n"
            '    result = [row for row in tables["t"]]\n'
            "except:\n"
            "    result = []\n"
            'columns = ["a"]\n'
        ),
        safe=True,
    ),
    Fixture(
        name="dead-while-banned",
        code=(
            "while False:\n"
            '    getattr(tables, "clear")()\n'
            'result = list(tables["t"])\n'
            'columns = ["a"]\n'
        ),
        safe=True,
    ),
    Fixture(
        name="string-mention-of-banned",
        code=(
            'result = ["eval", "open", "__import__"]\n'
            'columns = ["word"]\n'
        ),
        safe=True,
    ),
    Fixture(
        name="while-with-break",
        code=(
            "i = 0\n"
            "while True:\n"
            "    i = i + 1\n"
            "    if i > 10:\n"
            "        break\n"
            "result = [i]\n"
            'columns = ["i"]\n'
        ),
        safe=True,
    ),
    Fixture(
        name="clean-comprehension",
        code=(
            'rows = tables["t"]\n'
            "result = [row[0] for row in rows if row[1] > 0]\n"
            'columns = ["a"]\n'
        ),
        safe=True,
    ),
    Fixture(
        name="bounded-repeat",
        code=(
            "import itertools\n"
            "total = 0\n"
            "for x in itertools.repeat(2, 3):\n"
            "    total = total + x\n"
            "result = [total]\n"
            'columns = ["total"]\n'
        ),
        safe=True,
    ),
)


def safe_fixtures() -> List[Fixture]:
    return [f for f in FIXTURES if f.safe]


def unsafe_fixtures() -> List[Fixture]:
    return [f for f in FIXTURES if not f.safe]
