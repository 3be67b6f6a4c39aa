"""Tests for the CFG/dataflow engine, the golden corpus, and sandbox fuel."""

from __future__ import annotations

import ast

import pytest

from repro.analysis.corpus import FIXTURES, safe_fixtures, unsafe_fixtures
from repro.analysis.dataflow import (
    analyze_program,
    build_cfg,
    solve_forward,
)
from repro.analysis.findings import error_findings, warning_findings
from repro.analysis.pycheck import (
    BANNED_NAMES,
    DEFAULT_KNOWN_NAMES,
    TAINT_SINKS,
    TAINT_SOURCES,
    check_python,
)
from repro.codexdb.sandbox import run_generated_code
from repro.errors import FuelExhaustedError
from repro.sql import Database


def cfg_of(code):
    return build_cfg(ast.parse(code).body)


def analyze(code):
    return analyze_program(
        ast.parse(code),
        known=DEFAULT_KNOWN_NAMES,
        banned=BANNED_NAMES,
        taint_sources=TAINT_SOURCES,
        taint_sinks=TAINT_SINKS,
    )


class TestCFGConstruction:
    def test_straight_line_is_fully_reachable(self):
        cfg = cfg_of("a = 1\nb = a + 1\n")
        assert cfg.exit.index in cfg.reachable()

    def test_if_false_branch_is_unreachable(self):
        report = analyze("if False:\n    x = 1\ny = 2\n")
        assert 2 not in report.reachable_lines
        assert 3 in report.reachable_lines

    def test_if_true_else_is_unreachable(self):
        report = analyze("if True:\n    x = 1\nelse:\n    y = 2\nz = 3\n")
        assert 2 in report.reachable_lines
        assert 4 not in report.reachable_lines

    def test_code_after_return_semantics_via_while_true(self):
        # statements after a loop that never exits have no incoming edge
        report = analyze("while True:\n    x = 1\ny = 2\n")
        assert 3 not in report.reachable_lines

    def test_break_makes_loop_exit_reachable(self):
        report = analyze("while True:\n    break\ny = 2\n")
        assert 3 in report.reachable_lines

    def test_loops_are_recorded(self):
        cfg = cfg_of("while True:\n    x = 1\nfor i in range(3):\n    y = i\n")
        kinds = [type(node).__name__ for node, _frame in cfg.loops]
        assert kinds == ["While", "For"]


class TestWorklistSolver:
    def test_reaches_fixpoint_on_loop(self):
        # classic: definite assignment through a loop converges
        cfg = cfg_of("x = 1\nwhile x < 10:\n    x = x + 1\ny = x\n")

        def transfer(block, state):
            out = set(state)
            for element in block.elements:
                if element[0] == "stmt" and isinstance(element[1], ast.Assign):
                    for target in element[1].targets:
                        if isinstance(target, ast.Name):
                            out.add(target.id)
            return frozenset(out)

        def join(existing, incoming):
            if existing is None:
                return incoming
            return existing & incoming

        states = solve_forward(cfg, frozenset(), transfer, join)
        assert "x" in states[cfg.exit.index]

    def test_unreachable_blocks_get_no_state(self):
        cfg = cfg_of("if False:\n    x = 1\ny = 2\n")
        states = solve_forward(
            cfg, frozenset(), lambda b, s: s, lambda a, b: b if a is None else a
        )
        reachable = cfg.reachable()
        assert set(states) <= reachable


class TestDefiniteAssignment:
    def test_both_branches_definite(self):
        report = analyze(
            "if len(tables) > 0:\n    x = 1\nelse:\n    x = 2\nresult = [x]\n"
        )
        assert not any(f.rule == "use-before-def" for f in report.findings)

    def test_one_branch_not_definite(self):
        report = analyze("if len(tables) > 0:\n    x = 1\nresult = [x]\n")
        assert any(f.rule == "use-before-def" for f in report.findings)

    def test_loop_body_not_definite_after_loop(self):
        report = analyze("for i in range(3):\n    x = i\nresult = [x]\n")
        assert any(f.rule == "use-before-def" for f in report.findings)

    def test_exit_state_reports_module_results(self):
        report = analyze("result = []\ncolumns = []\n")
        assert report.definitely_assigned_at_exit is not None
        assert {"result", "columns"} <= set(report.definitely_assigned_at_exit)

    def test_walrus_binds(self):
        report = analyze("if (n := len(tables)) > 0:\n    y = n\nz = n\n")
        assert not any(f.rule == "use-before-def" for f in report.findings)

    def test_comprehension_target_does_not_leak(self):
        report = analyze("xs = [i for i in range(3)]\nresult = [i]\n")
        assert any(
            f.rule in ("use-before-def", "unknown-name") for f in report.findings
        )


class TestGoldenCorpus:
    """Exact verdicts over the labeled adversarial/benign fixtures."""

    @pytest.mark.parametrize(
        "fixture", unsafe_fixtures(), ids=lambda f: f.name
    )
    def test_unsafe_fixture_rejected_with_expected_rules(self, fixture):
        errors = error_findings(check_python(fixture.code))
        assert errors, f"{fixture.name} must be rejected"
        assert {f.rule for f in errors} == set(fixture.expect_rules)

    @pytest.mark.parametrize("fixture", safe_fixtures(), ids=lambda f: f.name)
    def test_safe_fixture_accepted(self, fixture):
        errors = error_findings(check_python(fixture.code))
        assert errors == [], f"{fixture.name} wrongly rejected: {errors}"

    def test_corpus_is_adversarial_and_benign(self):
        assert len(FIXTURES) >= 20
        assert len(unsafe_fixtures()) >= 10
        assert len(safe_fixtures()) >= 5


class TestSandboxFuel:
    def tables(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        return {"t": db.table("t")}

    def test_bounded_program_runs_untraced(self):
        code = (
            "result = [(r['a'],) for r in tables['t']]\n"
            "columns = ['a']\n"
        )
        outcome = run_generated_code(code, self.tables())
        assert outcome.rows == [(1,), (2,)]

    def test_data_dependent_loop_completes_under_fuel(self):
        code = (
            "i = 0\n"
            "while True:\n"
            "    i = i + 1\n"
            "    if i >= 5:\n"
            "        break\n"
            "result = [(i,)]\ncolumns = ['i']\n"
        )
        outcome = run_generated_code(code, self.tables())
        assert outcome.rows == [(5,)]

    def test_runaway_loop_exhausts_explicit_fuel(self):
        # provably-infinite loops are rejected statically, so simulate a
        # long-running data-dependent loop with a tiny explicit budget
        code = (
            "i = 0\n"
            "while True:\n"
            "    i = i + 1\n"
            "    if i >= 10**9:\n"
            "        break\n"
            "result = [(i,)]\ncolumns = ['i']\n"
        )
        with pytest.raises(FuelExhaustedError) as excinfo:
            run_generated_code(code, self.tables(), fuel=1000)
        assert excinfo.value.fuel == 1000

    def test_warning_findings_do_not_block_vetting(self):
        from repro.codexdb.sandbox import vet_generated_code

        code = (
            "i = 0\n"
            "while True:\n"
            "    i = i + 1\n"
            "    if i >= 2:\n"
            "        break\n"
            "result = [(i,)]\ncolumns = ['i']\n"
        )
        findings = vet_generated_code(code)
        assert any(f.rule == "unbounded-work" for f in findings)
        assert not error_findings(findings)
        assert warning_findings(findings)
