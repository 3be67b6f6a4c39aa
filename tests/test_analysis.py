"""Tests for repro.analysis: pycheck, sqlcheck, and the repo linter."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import check_python, check_sql
from repro.analysis.findings import (
    Finding,
    error_findings,
    render_findings,
    warning_findings,
)
from repro.analysis.lint import lint_paths, lint_source
from repro.analysis.pycheck import IMPORT_ALLOWLIST, assert_safe
from repro.errors import CodexDBError, StaticAnalysisError
from repro.sql import Database

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.execute("CREATE TABLE emp (name TEXT, dept TEXT, salary INT)")
    database.execute(
        "INSERT INTO emp VALUES ('a', 'eng', 100), ('b', 'sales', 80)"
    )
    database.execute("CREATE TABLE dept (dept TEXT, building TEXT)")
    database.execute("INSERT INTO dept VALUES ('eng', 'A'), ('sales', 'B')")
    return database


def rules_of(findings):
    return [f.rule for f in findings]


class TestPycheck:
    def test_clean_generated_style_program(self):
        code = (
            "rows = [dict(r) for r in tables['emp']]\n"
            "result = [(r['name'],) for r in rows]\n"
            "columns = ['name']\n"
        )
        assert check_python(code) == []

    def test_allowlisted_import_ok(self):
        code = "import time\n_t = time.perf_counter()\nresult = []\ncolumns = []\n"
        assert check_python(code) == []

    def test_banned_import_with_line(self):
        code = "x = 1\nimport os\nresult = []\ncolumns = []\n"
        findings = check_python(code)
        assert rules_of(findings) == ["banned-import"]
        assert findings[0].line == 2
        assert "os" in findings[0].message

    def test_from_import_banned(self):
        findings = check_python("from subprocess import run\nresult = []\ncolumns = []\n")
        assert rules_of(findings) == ["banned-import"]

    def test_class_escape_chain(self):
        code = (
            "result = ().__class__.__bases__[0].__subclasses__()\n"
            "columns = []\n"
        )
        findings = check_python(code)
        assert set(rules_of(findings)) == {"banned-attribute"}
        assert all(f.line == 1 for f in findings)

    def test_globals_attribute(self):
        code = "f = min\nresult = f.__globals__\ncolumns = []\n"
        assert "banned-attribute" in rules_of(check_python(code))

    def test_open_and_eval_banned(self):
        code = "result = open('x').read()\ncolumns = []\n"
        assert "banned-call" in rules_of(check_python(code))
        code = "result = eval('1')\ncolumns = []\n"
        assert "banned-call" in rules_of(check_python(code))

    def test_getattr_banned(self):
        code = "result = getattr(tables, 'clear')\ncolumns = []\n"
        assert "banned-call" in rules_of(check_python(code))

    def test_infinite_loop_flagged(self):
        code = "while True:\n    x = 1\nresult = []\ncolumns = []\n"
        assert "unbounded-loop" in rules_of(check_python(code))

    def test_loop_with_break_ok(self):
        code = (
            "while True:\n    if len(tables) >= 0:\n        break\n"
            "result = []\ncolumns = []\n"
        )
        findings = check_python(code)
        # accepted (no errors), but the trip count is data-dependent, so
        # the sandbox gets an unbounded-work warning to convert into fuel
        assert error_findings(findings) == []
        assert rules_of(warning_findings(findings)) == ["unbounded-work"]

    def test_break_in_nested_loop_does_not_count(self):
        code = (
            "while True:\n"
            "    for i in range(3):\n"
            "        break\n"
            "result = []\ncolumns = []\n"
        )
        assert "unbounded-loop" in rules_of(check_python(code))

    def test_unknown_name(self):
        findings = check_python("result = mystery\ncolumns = []\n")
        assert rules_of(findings) == ["unknown-name"]
        assert "mystery" in findings[0].message

    def test_missing_result_contract(self):
        findings = check_python("x = 1\n")
        assert rules_of(findings) == ["output-contract", "output-contract"]

    def test_contract_must_hold_on_both_branches(self):
        code = (
            "if len(tables) > 0:\n    result = []\n    columns = []\n"
            "else:\n    result = []\n"
        )
        findings = check_python(code)
        assert rules_of(findings) == ["output-contract"]
        assert "columns" in findings[0].message

    def test_contract_in_loop_is_not_definite(self):
        code = "for i in range(3):\n    result = []\n    columns = []\n"
        assert rules_of(check_python(code)) == ["output-contract", "output-contract"]

    def test_syntax_error_is_a_finding(self):
        findings = check_python("result = (\n")
        assert rules_of(findings) == ["syntax"]

    def test_assert_safe_raises_with_findings(self):
        with pytest.raises(StaticAnalysisError) as excinfo:
            assert_safe("import os\nresult = []\ncolumns = []\n")
        assert excinfo.value.findings
        assert "line 1" in str(excinfo.value)

    def test_allowlist_contents(self):
        assert {"time", "math", "collections", "itertools"} == set(IMPORT_ALLOWLIST)


class TestFlowSensitivePycheck:
    """The CFG-based passes: verdicts the old mention-ban checker got wrong."""

    def test_banned_name_in_dead_branch_accepted(self):
        code = (
            "if False:\n    result = eval('1')\n"
            "result = list(tables['t'])\ncolumns = ['a']\n"
        )
        findings = check_python(code)
        assert error_findings(findings) == []
        assert "unreachable-code" in rules_of(warning_findings(findings))

    def test_shadowed_builtin_accepted(self):
        code = (
            "open = 0\nfor r in tables['t']:\n    open = open + 1\n"
            "result = [open]\ncolumns = ['n']\n"
        )
        assert error_findings(check_python(code)) == []

    def test_half_shadowed_builtin_still_banned(self):
        # only one path assigns `open`, so the builtin shines through
        code = (
            "if len(tables) > 0:\n    open = 0\n"
            "result = [open('x')]\ncolumns = ['n']\n"
        )
        assert "banned-call" in rules_of(error_findings(check_python(code)))

    def test_use_before_def_on_one_path(self):
        code = (
            "if len(tables) > 0:\n    x = 1\n"
            "result = [x]\ncolumns = ['x']\n"
        )
        findings = check_python(code)
        assert rules_of(error_findings(findings)) == ["use-before-def"]

    def test_nested_def_binding_not_visible_at_module_level(self):
        # regression for the flat _bound_names: `inner` is bound only
        # inside helper(), so the module-level read must be flagged
        code = (
            "def helper():\n    inner = [1]\n    return inner\n"
            "result = inner\ncolumns = ['x']\n"
        )
        findings = check_python(code)
        assert "unknown-name" in rules_of(error_findings(findings))

    def test_module_names_visible_inside_nested_def(self):
        code = (
            "base = list(tables['t'])\n"
            "def helper():\n    return base\n"
            "result = helper()\ncolumns = ['x']\n"
        )
        assert error_findings(check_python(code)) == []

    def test_banned_builtin_alias_flow(self):
        code = (
            "g = getattr\nresult = [g(tables, 'clear')]\ncolumns = ['x']\n"
        )
        assert "banned-call" in rules_of(error_findings(check_python(code)))

    def test_taint_reaches_getattr_sink(self):
        code = (
            "name = tables['t'][0][0]\n"
            "result = [getattr([], name)]\ncolumns = ['x']\n"
        )
        assert "taint-flow" in rules_of(error_findings(check_python(code)))

    def test_constant_attribute_name_is_not_taint(self):
        # dangerous only via the banned-call rule; no taint-flow finding
        code = "result = [getattr([], 'append')]\ncolumns = ['x']\n"
        assert "taint-flow" not in rules_of(check_python(code))

    def test_frozen_while_condition_rejected(self):
        code = (
            "n = 5\ntotal = 0\nwhile n > 0:\n    total = total + 1\n"
            "result = [total]\ncolumns = ['t']\n"
        )
        assert "unbounded-loop" in rules_of(error_findings(check_python(code)))

    def test_while_condition_mutated_in_body_accepted(self):
        code = (
            "n = 5\nwhile n > 0:\n    n = n - 1\n"
            "result = [n]\ncolumns = ['n']\n"
        )
        findings = check_python(code)
        assert error_findings(findings) == []
        assert "unbounded-work" in rules_of(warning_findings(findings))

    def test_itertools_count_rejected(self):
        code = (
            "import itertools\ntotal = 0\n"
            "for i in itertools.count():\n    total = total + i\n"
            "result = [total]\ncolumns = ['t']\n"
        )
        assert "unbounded-loop" in rules_of(error_findings(check_python(code)))

    def test_contract_satisfied_by_try_except(self):
        code = (
            "try:\n    result = [r for r in tables['t']]\n"
            "except:\n    result = []\n"
            "columns = ['a']\n"
        )
        assert error_findings(check_python(code)) == []

    def test_code_after_infinite_loop_cannot_satisfy_contract(self):
        code = (
            "while True:\n    x = 1\n"
            "result = []\ncolumns = []\n"
        )
        rules = rules_of(error_findings(check_python(code)))
        assert "unbounded-loop" in rules
        assert "output-contract" in rules

    def test_import_in_dead_branch_accepted(self):
        code = "if False:\n    import os\nresult = []\ncolumns = []\n"
        assert error_findings(check_python(code)) == []

    def test_assert_safe_ignores_warnings(self):
        code = (
            "i = 0\nwhile True:\n    i = i + 1\n    if i > 3:\n        break\n"
            "result = [i]\ncolumns = ['i']\n"
        )
        findings = assert_safe(code)  # must not raise
        assert "unbounded-work" in rules_of(findings)


class TestConcurrencyLint:
    """shared-state-mutation and blocking-call-in-async (gateway gates)."""

    def test_async_self_mutation_flagged(self):
        code = (
            "class Engine:\n"
            "    async def handle(self, req):\n"
            "        self.stats = req\n"
        )
        assert "shared-state-mutation" in rules_of(lint_source(code))

    def test_async_mutating_method_call_flagged(self):
        code = (
            "class Engine:\n"
            "    async def handle(self, req):\n"
            "        self.queue.append(req)\n"
        )
        assert "shared-state-mutation" in rules_of(lint_source(code))

    def test_sync_self_mutation_not_flagged(self):
        code = (
            "class Engine:\n"
            "    def handle(self, req):\n"
            "        self.stats = req\n"
        )
        assert "shared-state-mutation" not in rules_of(lint_source(code))

    def test_local_mutation_in_async_not_flagged(self):
        code = (
            "class Engine:\n"
            "    async def handle(self, req):\n"
            "        out = []\n"
            "        out.append(req)\n"
            "        return out\n"
        )
        assert "shared-state-mutation" not in rules_of(lint_source(code))

    def test_blocking_sleep_in_async_flagged(self):
        code = (
            "import time\n"
            "async def handle(req):\n"
            "    time.sleep(1)\n"
        )
        findings = lint_source(code, rules=frozenset({"blocking-call-in-async"}))
        assert rules_of(findings) == ["blocking-call-in-async"]

    def test_blocking_open_in_async_flagged(self):
        code = "async def handle(path):\n    return open(path)\n"
        findings = lint_source(code, rules=frozenset({"blocking-call-in-async"}))
        assert rules_of(findings) == ["blocking-call-in-async"]

    def test_blocking_call_in_sync_not_flagged(self):
        code = "def handle(path):\n    return open(path)\n"
        findings = lint_source(code, rules=frozenset({"blocking-call-in-async"}))
        assert findings == []

    def test_gateway_shaped_async_mutation_flagged(self):
        # A naive gateway that mutates shared counters directly inside
        # its async dispatch loop — exactly the bug class the real
        # gateway avoids by confining mutation to sync helper methods.
        code = (
            "class Gateway:\n"
            "    async def dispatch_loop(self, replica):\n"
            "        while True:\n"
            "            batch = self.queue.pop(0)\n"
            "            self.in_flight += len(batch)\n"
            "            await replica.decode(batch)\n"
            "            self.in_flight -= len(batch)\n"
        )
        findings = lint_source(code, rules=frozenset({"shared-state-mutation"}))
        assert len(findings) == 3  # pop, +=, -= all cross an await
        assert {f.rule for f in findings} == {"shared-state-mutation"}

    def test_gateway_shaped_blocking_decode_flagged(self):
        # Decoding synchronously inside the event loop (instead of a
        # worker thread) stalls every other tenant for the whole batch.
        code = (
            "import time\n"
            "class Gateway:\n"
            "    async def run_batch(self, replica, batch):\n"
            "        results = replica.scheduler.run()\n"
            "        time.sleep(replica.service_seconds)\n"
            "        return results\n"
        )
        findings = lint_source(code, rules=frozenset({"blocking-call-in-async"}))
        assert [f.rule for f in findings] == ["blocking-call-in-async"]

    def test_real_gateway_modules_are_clean(self):
        # Non-vacuous proof: the rules fire on gateway-shaped fixtures
        # above, and the shipped gateway/loadgen/aclock pass unwaived.
        serving = REPO_ROOT / "src" / "repro" / "serving"
        reliability = REPO_ROOT / "src" / "repro" / "reliability"
        findings = lint_paths(
            [
                serving / "gateway.py",
                serving / "loadgen.py",
                reliability / "aclock.py",
            ]
        )
        assert findings == []

    def test_concurrency_rules_are_noqa_able(self):
        code = (
            "class Engine:\n"
            "    async def handle(self, req):\n"
            "        self.stats = req  # repro: noqa[shared-state-mutation]\n"
        )
        assert "shared-state-mutation" not in rules_of(lint_source(code))

    def test_shared_state_report_inventories_writes(self):
        from repro.analysis.concurrency import audit_source

        code = (
            "class Cache:\n"
            "    def __init__(self):\n"
            "        self.data = {}\n"
            "    def put(self, k, v):\n"
            "        self.data[k] = v\n"
            "        self.hits += 1\n"
        )
        entries = audit_source(code, path="cache.py")
        assert len(entries) == 1
        attrs = entries[0]["shared_attributes"]
        # __init__ writes are construction, not shared-state mutation
        assert set(attrs) == {"data", "hits"}
        kinds = {w["kind"] for w in attrs["data"]}
        assert kinds == {"subscript"}

    def test_serving_classes_appear_in_report(self):
        from repro.analysis.concurrency import shared_state_report

        report = shared_state_report([REPO_ROOT / "src" / "repro" / "serving"])
        classes = {entry["class"] for entry in report["classes"]}
        assert "BatchedGenerator" in classes
        assert "PrefixCache" in classes


class TestLintCLIErgonomics:
    def run_cli(self, *args):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis.lint", *args],
            capture_output=True, text=True, env=env,
        )

    def test_format_json(self, tmp_path):
        import json

        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "def f(items=[]):\n    return items\n"
            "try:\n    x = 1\nexcept:\n    pass\n"
        )
        proc = self.run_cli("--format", "json", str(dirty))
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert [f["rule"] for f in payload] == ["mutable-default", "bare-except"]
        assert all(f["path"] == str(dirty) for f in payload)

    def test_rules_filter(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "def f(items=[]):\n    return items\n"
            "try:\n    x = 1\nexcept:\n    pass\n"
        )
        proc = self.run_cli("--rules", "bare-except", str(dirty))
        assert proc.returncode == 1
        assert "bare-except" in proc.stdout
        assert "mutable-default" not in proc.stdout

    def test_unknown_rule_rejected(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        proc = self.run_cli("--rules", "no-such-rule", str(clean))
        assert proc.returncode == 2
        assert "unknown rule" in proc.stdout

    def test_findings_sorted_by_path_then_line(self, tmp_path):
        import json

        b = tmp_path / "b.py"
        b.write_text("def f(items=[]):\n    return items\n")
        a = tmp_path / "a.py"
        a.write_text("x = 1\ndef g(cache={}):\n    return cache\n")
        proc = self.run_cli("--format", "json", str(tmp_path))
        payload = json.loads(proc.stdout)
        keys = [(f["path"], f["line"]) for f in payload]
        assert keys == sorted(keys)

    def test_shared_state_flag_emits_json(self):
        import json

        proc = self.run_cli(
            "--shared-state", str(REPO_ROOT / "src" / "repro" / "serving")
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["files_scanned"] > 0
        assert any(
            entry["class"] == "BatchedGenerator" for entry in report["classes"]
        )


class TestSqlcheck:
    def test_clean_query(self, db):
        assert check_sql("SELECT name FROM emp WHERE salary > 50", db.catalog) == []

    def test_unknown_table(self, db):
        findings = check_sql("SELECT x FROM nowhere", db.catalog)
        assert "unknown-table" in rules_of(findings)

    def test_unknown_column(self, db):
        findings = check_sql("SELECT bogus FROM emp", db.catalog)
        assert rules_of(findings) == ["unknown-column"]
        assert "bogus" in findings[0].message

    def test_unknown_qualified_column(self, db):
        findings = check_sql(
            "SELECT e.bogus FROM emp e JOIN dept d ON e.dept = d.dept",
            db.catalog,
        )
        assert "unknown-column" in rules_of(findings)

    def test_unknown_alias(self, db):
        findings = check_sql("SELECT z.name FROM emp e", db.catalog)
        assert rules_of(findings) == ["unknown-alias"]

    def test_ambiguous_column_across_join(self, db):
        findings = check_sql(
            "SELECT dept FROM emp e JOIN dept d ON e.dept = d.dept",
            db.catalog,
        )
        assert rules_of(findings) == ["ambiguous-column"]

    def test_type_mismatch_comparison(self, db):
        findings = check_sql("SELECT name FROM emp WHERE salary > 'abc'", db.catalog)
        assert rules_of(findings) == ["type-mismatch"]

    def test_numeric_comparison_ok(self, db):
        assert check_sql("SELECT name FROM emp WHERE salary > 1.5", db.catalog) == []

    def test_arithmetic_on_text(self, db):
        findings = check_sql("SELECT name + 1 FROM emp", db.catalog)
        assert rules_of(findings) == ["type-mismatch"]

    def test_aggregate_over_text(self, db):
        findings = check_sql("SELECT SUM(name) FROM emp", db.catalog)
        assert rules_of(findings) == ["aggregate-type"]

    def test_aggregate_in_where(self, db):
        findings = check_sql(
            "SELECT name FROM emp WHERE COUNT(*) > 1", db.catalog
        )
        assert "misplaced-aggregate" in rules_of(findings)

    def test_order_by_output_alias_ok(self, db):
        sql = "SELECT dept, COUNT(*) AS cnt FROM emp GROUP BY dept ORDER BY cnt DESC"
        assert check_sql(sql, db.catalog) == []

    def test_having_may_aggregate(self, db):
        sql = "SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) > 1"
        assert check_sql(sql, db.catalog) == []

    def test_syntax_error_is_a_finding(self, db):
        findings = check_sql("SELECT FROM WHERE", db.catalog)
        assert rules_of(findings) == ["syntax"]

    def test_in_list_type_mismatch(self, db):
        findings = check_sql(
            "SELECT name FROM emp WHERE salary IN (1, 'two')", db.catalog
        )
        assert "type-mismatch" in rules_of(findings)

    def test_between_type_mismatch(self, db):
        findings = check_sql(
            "SELECT name FROM emp WHERE salary BETWEEN 1 AND 'nine'", db.catalog
        )
        assert "type-mismatch" in rules_of(findings)

    def test_non_select_statements_pass(self, db):
        assert check_sql("CREATE TABLE t (x INT)", db.catalog) == []


class TestLintRules:
    def test_mutable_default_list(self):
        code = "def f(x, items=[]):\n    return items\n"
        findings = lint_source(code)
        assert rules_of(findings) == ["mutable-default"]

    def test_mutable_default_dict_call(self):
        code = "def f(cache=dict()):\n    return cache\n"
        assert rules_of(lint_source(code)) == ["mutable-default"]

    def test_none_default_ok(self):
        code = "def f(items=None):\n    return items or []\n"
        assert lint_source(code) == []

    def test_bare_except(self):
        code = "try:\n    x = 1\nexcept:\n    pass\n"
        findings = lint_source(code)
        assert rules_of(findings) == ["bare-except"]
        assert findings[0].line == 3

    def test_typed_except_ok(self):
        code = "try:\n    x = 1\nexcept ValueError:\n    pass\n"
        assert lint_source(code) == []

    def test_future_annotations_required_when_annotating(self):
        code = "def f(x: int) -> int:\n    return x\n"
        assert rules_of(lint_source(code)) == ["future-annotations"]

    def test_future_annotations_satisfied(self):
        code = (
            "from __future__ import annotations\n"
            "def f(x: int) -> int:\n    return x\n"
        )
        assert lint_source(code) == []

    def test_no_annotations_no_requirement(self):
        assert lint_source("def f(x):\n    return x\n") == []

    def test_init_module_exempt(self):
        code = "def f(x: int) -> int:\n    return x\n"
        assert lint_source(code, path="pkg/__init__.py") == []

    def test_numpy_random_flagged(self):
        code = "import numpy as np\nx = np.random.default_rng(0).normal()\n"
        assert "numpy-random" in rules_of(lint_source(code))

    def test_numpy_random_exempt_in_rng_module(self):
        code = "import numpy as np\nx = np.random.default_rng(0)\n"
        assert lint_source(code, path="src/repro/utils/rng.py") == []

    def test_exec_eval_flagged(self):
        code = "exec('x = 1')\n"
        assert rules_of(lint_source(code)) == ["exec-eval"]
        code = "y = eval('2')\n"
        assert rules_of(lint_source(code)) == ["exec-eval"]

    def test_exec_exempt_in_sandbox(self):
        code = "exec('x = 1')\n"
        assert lint_source(code, path="src/repro/codexdb/sandbox.py") == []

    def test_method_named_eval_not_flagged(self):
        code = "model.eval()\n"
        assert lint_source(code) == []

    def test_wall_clock_sleep_flagged(self):
        code = "import time\ntime.sleep(1.0)\n"
        assert rules_of(lint_source(code)) == ["wall-clock"]

    def test_wall_clock_monotonic_flagged(self):
        code = "import time\nstart = time.monotonic()\n"
        assert rules_of(lint_source(code)) == ["wall-clock"]

    def test_wall_clock_from_import_flagged(self):
        code = "from time import sleep\nsleep(2)\n"
        assert rules_of(lint_source(code)) == ["wall-clock"]

    def test_wall_clock_aliased_import_flagged(self):
        code = "from time import sleep as snooze\nsnooze(2)\n"
        assert rules_of(lint_source(code)) == ["wall-clock"]

    def test_wall_clock_perf_counter_allowed(self):
        code = "import time\nstart = time.perf_counter()\n"
        assert lint_source(code) == []

    def test_wall_clock_other_sleep_not_flagged(self):
        code = "clock.sleep(1.0)\n"
        assert lint_source(code) == []

    def test_wall_clock_exempt_in_clock_module(self):
        code = "import time\ntime.sleep(1.0)\n"
        assert lint_source(code, path="src/repro/reliability/clock.py") == []

    def test_wall_clock_noqa_escape_hatch(self):
        code = "import time\ntime.sleep(1.0)  # repro: noqa[wall-clock]\n"
        assert lint_source(code) == []


    def test_atomic_write_open_w_flagged(self):
        code = "handle = open('out.txt', 'w')\n"
        assert rules_of(lint_source(code)) == ["atomic-write"]

    def test_atomic_write_open_wb_flagged(self):
        code = "with open(path, 'wb') as f:\n    f.write(b'x')\n"
        assert "atomic-write" in rules_of(lint_source(code))

    def test_atomic_write_mode_keyword_flagged(self):
        code = "handle = open(path, mode='a')\n"
        assert rules_of(lint_source(code)) == ["atomic-write"]

    def test_atomic_write_read_modes_ok(self):
        assert lint_source("h = open(path)\n") == []
        assert lint_source("h = open(path, 'rb')\n") == []

    def test_atomic_write_exempt_in_durability(self):
        code = "h = open(path, 'wb')\n"
        assert lint_source(code, path="src/repro/durability/io.py") == []

    def test_atomic_write_exempt_in_tests(self):
        code = "h = open(path, 'w')\n"
        assert lint_source(code, path="tests/test_x.py") == []

    def test_atomic_write_noqa_escape_hatch(self):
        code = "h = open(path, 'w')  # repro: noqa[atomic-write]\n"
        assert lint_source(code) == []

    def test_atomic_write_write_text_flagged(self):
        code = "path.write_text('data')\n"
        assert rules_of(lint_source(code)) == ["atomic-write"]

    def test_atomic_write_write_bytes_flagged(self):
        code = "Path(out).write_bytes(blob)\n"
        assert rules_of(lint_source(code)) == ["atomic-write"]

    def test_atomic_write_path_open_write_mode_flagged(self):
        code = "with path.open('w') as f:\n    f.write('x')\n"
        assert "atomic-write" in rules_of(lint_source(code))

    def test_atomic_write_path_open_read_mode_ok(self):
        assert lint_source("h = path.open()\n") == []
        assert lint_source("h = path.open('r')\n") == []

    def test_atomic_write_read_text_ok(self):
        assert lint_source("data = path.read_text()\n") == []

    def test_slow_pow_flagged_in_hot_path_dirs(self):
        code = "def f(x):\n    return 0.5 * x**3\n"
        for package in ("autograd", "nn", "models", "serving", "training"):
            findings = lint_source(code, path=f"src/repro/{package}/mod.py")
            assert rules_of(findings) == ["slow-pow"]
            assert findings[0].line == 2
        code = "x **= 4\n"
        assert rules_of(lint_source(code, path="src/repro/nn/mod.py")) == ["slow-pow"]

    def test_slow_pow_ignores_squares_floats_and_names(self):
        code = "a = x**2\nb = x ** 0.5\nc = x ** -0.5\nd = x ** n\ne = x * x * x\n"
        assert lint_source(code, path="src/repro/autograd/mod.py") == []

    def test_slow_pow_only_in_hot_path_dirs(self):
        code = "y = x ** 3\n"
        assert lint_source(code, path="src/repro/sql/eval.py") == []
        assert lint_source(code, path="tests/test_nn.py") == []

    def test_slow_pow_noqa(self):
        code = "y = x ** 3  # repro: noqa[slow-pow]\n"
        assert lint_source(code, path="src/repro/nn/mod.py") == []

    def test_unused_import_flagged_under_src(self):
        code = (
            "from __future__ import annotations\nimport os\nimport numpy as np\n"
            "from typing import Dict, List, Optional\n"
            "def f(x: Optional[int]) -> List[int]:\n    return np.zeros(x)\n"
        )
        findings = lint_source(code, path="src/repro/sql/mod.py")
        assert rules_of(findings) == ["unused-import", "unused-import"]
        assert [(f.line, f.message.split("'")[1]) for f in findings] == [
            (2, "os"), (4, "Dict"),
        ]

    def test_unused_import_reads_count(self):
        code = (
            "from __future__ import annotations\n"
            "import os.path\nfrom a import b as c, d, e\n"
            "__all__ = ['e']\n"
            "x = os.path.join(c.y, 'z')\ndef f(v: d):\n    return v\n"
        )
        assert lint_source(code, path="src/repro/sql/mod.py") == []

    def test_unused_import_scope(self):
        code = "from a import b\n"
        assert lint_source(code, path="src/repro/sql/__init__.py") == []
        assert lint_source(code, path="tests/test_sql.py") == []
        noqa = "from a import b  # repro: noqa[unused-import]\n"
        assert lint_source(noqa, path="src/repro/sql/mod.py") == []


class TestNoqaSuppression:
    def test_noqa_suppresses_named_rule(self):
        code = "def f(items=[]):  # repro: noqa[mutable-default]\n    return items\n"
        assert lint_source(code) == []

    def test_noqa_wrong_rule_does_not_suppress(self):
        code = "def f(items=[]):  # repro: noqa[bare-except]\n    return items\n"
        assert rules_of(lint_source(code)) == ["mutable-default"]

    def test_noqa_comma_list(self):
        code = (
            "def f(items=[], cache={}):  "
            "# repro: noqa[mutable-default, bare-except]\n"
            "    return items, cache\n"
        )
        assert lint_source(code) == []

    def test_noqa_only_applies_to_its_line(self):
        code = (
            "x = 1  # repro: noqa[bare-except]\n"
            "try:\n    x = 2\nexcept:\n    pass\n"
        )
        assert rules_of(lint_source(code)) == ["bare-except"]


class TestLintGate:
    """The repo linter is part of the tier-1 gate: src/ must stay clean."""

    def test_src_tree_is_clean(self):
        findings = lint_paths([REPO_ROOT / "src"])
        assert findings == [], "\n" + render_findings(findings)

    def test_tests_and_benchmarks_are_clean(self):
        findings = lint_paths([REPO_ROOT / "tests", REPO_ROOT / "benchmarks"])
        assert findings == [], "\n" + render_findings(findings)

    def test_cli_exit_codes(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("def f(x):\n    return x\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("def f(items=[]):\n    return items\n")
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        ok = subprocess.run(
            [sys.executable, "-m", "repro.analysis.lint", str(clean)],
            capture_output=True, text=True, env=env,
        )
        assert ok.returncode == 0
        bad = subprocess.run(
            [sys.executable, "-m", "repro.analysis.lint", str(dirty)],
            capture_output=True, text=True, env=env,
        )
        assert bad.returncode == 1
        assert "mutable-default" in bad.stdout

    def test_cli_rejects_missing_path(self):
        from repro.analysis.lint import main

        assert main(["/no/such/dir"]) == 2

    def test_cli_empty_argument_list_prints_usage(self, tmp_path, monkeypatch, capsys):
        from repro.analysis.lint import main

        dirty = tmp_path / "dirty.py"
        dirty.write_text("def f(items=[]):\n    return items\n")
        monkeypatch.setattr(sys, "argv", ["prog", str(tmp_path)])
        assert main([]) == 2
        assert capsys.readouterr().out.startswith("usage:")

    def test_core_layers_do_not_import_serving_or_api(self):
        # autograd/nn/models/generation sit below the serving stack: an
        # import upward (even one deferred into a function body) makes
        # the core depend on the layer built on it.
        upper = ("repro.serving", "repro.api")
        offenders = []
        for layer in ("autograd", "nn", "models", "generation"):
            for path in sorted((REPO_ROOT / "src" / "repro" / layer).rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                    if isinstance(node, ast.Import):
                        names = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom) and node.module:
                        # ``from repro import serving`` names it as an alias
                        names = [f"{node.module}.{alias.name}" for alias in node.names]
                    else:
                        continue
                    offenders += [
                        f"{path.relative_to(REPO_ROOT)}:{node.lineno} {name}"
                        for name in names
                        if any(name == u or name.startswith(u + ".") for u in upper)
                    ]
        assert offenders == []


class TestFindingRendering:
    def test_render_with_line(self):
        f = Finding(rule="bare-except", message="msg", line=3, source="a.py")
        assert f.render() == "a.py:line 3: [bare-except] msg"

    def test_render_without_line(self):
        f = Finding(rule="output-contract", message="msg")
        assert f.render() == "[output-contract] msg"
