"""Static vetting of generated artifacts, plus a repo-wide linter.

Both flagship applications of the paper — CodexDB-style code synthesis
and text-to-SQL — *execute model-generated programs*. This package
makes sure nothing generated runs unvetted:

* :mod:`~repro.analysis.dataflow` — CFG construction and worklist
  dataflow over Python ASTs (definite assignment, taint tracking,
  reachability, loop-bound estimation);
* :mod:`~repro.analysis.pycheck` — flow-sensitive safety/correctness
  analysis of generated Python standing on the dataflow engine (the
  sandbox runs it before ``exec``);
* :mod:`~repro.analysis.corpus` — labeled adversarial/benign fixture
  programs pinning the vetter's exact verdicts;
* :mod:`~repro.analysis.concurrency` — shared-state audit of the
  serving classes plus the async-safety lint rules that gate the
  upcoming gateway;
* :mod:`~repro.analysis.sqlcheck` — semantic validation of SQL against
  the catalog (text-to-SQL reports it as the ``static_valid`` metric,
  the semantic operator uses it to reject bad rewrites early);
* :mod:`~repro.analysis.lint` — project-specific lint rules over our
  own source tree (``python -m repro.analysis.lint src/ tests/``);
* :mod:`~repro.analysis.settings` — settings (defaulted parameters and
  dataclass fields) that no caller outside the tests sets
  (``python -m repro.analysis.settings``), checked in tier-1 against a
  list of justified exceptions.
"""

from repro.analysis.concurrency import shared_state_report
from repro.analysis.dataflow import (
    ProgramReport,
    analyze_program,
    build_cfg,
    solve_forward,
)
from repro.analysis.findings import (
    Finding,
    error_findings,
    render_findings,
    warning_findings,
)
from repro.analysis.pycheck import (
    IMPORT_ALLOWLIST,
    TAINT_SINKS,
    TAINT_SOURCES,
    assert_safe,
    check_python,
)
from repro.analysis.sqlcheck import check_query, check_sql, check_statement

# NOTE: repro.analysis.lint and repro.analysis.settings are
# intentionally *not* imported here — they are ``python -m`` entry
# points, and importing them from the package __init__ would trigger
# runpy's double-import warning.
# (repro.analysis.concurrency backs two lint rules but imports neither
# module, so the guarantee holds.)

__all__ = [
    "Finding",
    "ProgramReport",
    "analyze_program",
    "build_cfg",
    "solve_forward",
    "error_findings",
    "render_findings",
    "warning_findings",
    "shared_state_report",
    "IMPORT_ALLOWLIST",
    "TAINT_SINKS",
    "TAINT_SOURCES",
    "assert_safe",
    "check_python",
    "check_query",
    "check_sql",
    "check_statement",
]
