"""The recovery harness: crash -> reopen -> verify, over random workloads.

The durability contract under a process crash has three clauses:

1. **no lost committed writes** — every transaction whose commit was
   acknowledged before the crash is present after recovery;
2. **no visible uncommitted writes** — a transaction whose commit was
   never *requested* is absent after recovery;
3. **in-flight commits may land either way** — a commit that was in
   flight when the crash hit may surface committed or not, but nothing
   in between.

:func:`run_crash_matrix` checks all three mechanically: it generates a
seeded random DML workload (tables, inserts, updates, deletes, indexes,
explicit transactions, rollbacks, a compaction), first runs it with a
*recording* :class:`CrashInjector` to discover every reachable crash
point, then for each (point, occurrence, seed) combination replays the
workload with a crash armed, reopens the directory, and compares the
recovered tables against a shadow plain :class:`~repro.sql.Database`
that received exactly the acknowledged statements.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.durability.crash import CrashInjector
from repro.durability.database import DurableDatabase, dump_database
from repro.errors import SimulatedCrash, SQLError
from repro.sql.engine import Database
from repro.utils.rng import SeededRNG

#: workload control markers (everything else is a SQL statement)
BEGIN, COMMIT, ROLLBACK, COMPACT = "BEGIN", "COMMIT", "ROLLBACK", "COMPACT"

_GROUPS = ("alpha", "beta", "gamma")


def random_dml_workload(seed: int = 0, num_statements: int = 30) -> List[str]:
    """A seeded mixed workload of DDL/DML plus transaction markers.

    Always contains at least one committed transaction, one rolled-back
    transaction, and one compaction, so every crash point of the WAL,
    snapshot, and truncation paths is reachable.
    """
    rng = SeededRNG(seed).spawn("dml-workload")
    tables = ["t0", "t1"]
    ops: List[str] = [
        f"CREATE TABLE {name} (id INT, grp TEXT, val FLOAT)"
        for name in tables
    ]
    next_id = 0

    def insert(table: str) -> str:
        nonlocal next_id
        rows = []
        for _ in range(rng.randint(1, 4)):
            rows.append(
                f"({next_id}, '{rng.choice(_GROUPS)}', "
                f"{rng.randint(0, 100)}.5)"
            )
            next_id += 1
        return f"INSERT INTO {table} VALUES {', '.join(rows)}"

    def mutate(table: str) -> str:
        roll = rng.random()
        if roll < 0.55:
            return insert(table)
        if roll < 0.80:
            return (
                f"UPDATE {table} SET val = val + {rng.randint(1, 9)} "
                f"WHERE grp = '{rng.choice(_GROUPS)}'"
            )
        return f"DELETE FROM {table} WHERE id = {rng.randint(0, max(next_id, 1))}"

    # Guaranteed structure: seed rows, a committed txn, a rolled-back
    # txn, and a compaction, with random filler in between.
    for table in tables:
        ops.append(insert(table))
    ops += [BEGIN, mutate(rng.choice(tables)), mutate(rng.choice(tables)), COMMIT]
    ops += [BEGIN, mutate(rng.choice(tables)), ROLLBACK]
    ops.append(COMPACT)
    indexed = False
    while len(ops) < num_statements:
        roll = rng.random()
        if roll < 0.12 and not indexed:
            ops.append(f"CREATE INDEX ON {tables[0]} (grp)")
            indexed = True
        elif roll < 0.30:
            block = [BEGIN, mutate(rng.choice(tables))]
            if rng.coin(0.5):
                block.append(mutate(rng.choice(tables)))
            block.append(COMMIT if rng.coin(0.75) else ROLLBACK)
            ops += block
        else:
            ops.append(mutate(rng.choice(tables)))
    return ops


@dataclass
class TrialResult:
    """One crash-and-recover trial of the matrix."""

    point: str
    occurrence: int
    seed: int
    crashed: bool
    equivalent: bool
    detail: str = ""
    #: workload length, so the exact trial is reconstructible
    num_statements: int = 0
    #: which data plane ran the trial ("single" or "cluster")
    topology: str = "single"
    #: a second armed crash that provoked the failover (cluster mode)
    trigger_point: str = ""
    trigger_occurrence: int = 0

    @property
    def ok(self) -> bool:
        return self.equivalent

    def repro_line(self) -> str:
        """One pasteable line that re-runs exactly this trial."""
        runner = (
            "run_crash_trial"
            if self.topology == "single"
            else "run_cluster_crash_trial"
        )
        workload = (
            f"random_dml_workload(seed={self.seed}, "
            f"num_statements={self.num_statements})"
        )
        extra = ""
        if self.trigger_point:
            extra = (
                f", trigger_point={self.trigger_point!r}, "
                f"trigger_occurrence={self.trigger_occurrence}"
            )
        return (
            f"{runner}(tmp_dir, {workload}, "
            f"point={self.point!r}, occurrence={self.occurrence}, "
            f"seed={self.seed}{extra})"
        )


@dataclass
class CrashMatrixReport:
    """Every trial of one matrix run, plus the discovered crash points."""

    trials: List[TrialResult] = field(default_factory=list)
    #: crash point -> max occurrences observed in a crash-free run
    points: Dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> int:
        return sum(1 for t in self.trials if t.ok)

    @property
    def failed(self) -> List[TrialResult]:
        return [t for t in self.trials if not t.ok]

    @property
    def all_ok(self) -> bool:
        return not self.failed

    def render(self) -> List[str]:
        lines = [
            f"crash points discovered: {len(self.points)}",
            f"trials: {len(self.trials)}, passed: {self.passed}, "
            f"failed: {len(self.failed)}",
        ]
        for trial in self.failed:
            lines.append(
                f"  FAILED {trial.point}#{trial.occurrence} seed={trial.seed} "
                f"topology={trial.topology}: {trial.detail}"
            )
            lines.append(f"    repro: {trial.repro_line()}")
        return lines


def _run_workload(
    db: DurableDatabase, workload: Sequence[str]
) -> Tuple[Database, Optional[List[str]], bool]:
    """Drive the workload, shadowing acknowledged statements.

    Returns ``(shadow, inflight, crashed)`` where ``shadow`` holds
    exactly the committed statements and ``inflight`` the statements of
    a commit that was requested but not yet acknowledged at crash time.
    """
    shadow = Database()
    txn_ops: List[str] = []
    in_txn = False
    inflight: Optional[List[str]] = None
    try:
        for op in workload:
            if op == BEGIN:
                db.begin()
                in_txn, txn_ops = True, []
            elif op == COMMIT:
                inflight = list(txn_ops)
                db.commit()
                for sql in inflight:
                    shadow.execute(sql)
                inflight, in_txn, txn_ops = None, False, []
            elif op == ROLLBACK:
                db.rollback()
                in_txn, txn_ops = False, []
            elif op == COMPACT:
                db.compact()
            elif in_txn:
                try:
                    db.execute(op)
                except SQLError:
                    in_txn, txn_ops = False, []  # statement aborted the txn
                else:
                    txn_ops.append(op)
            else:
                inflight = [op]
                try:
                    db.execute(op)
                except SQLError:
                    pass  # nothing became durable
                else:
                    shadow.execute(op)
                inflight = None
        return shadow, None, False
    except SimulatedCrash:
        return shadow, inflight, True


def discover_crash_points(
    directory: Union[str, Path], workload: Sequence[str]
) -> Dict[str, int]:
    """Run the workload crash-free and count reaches of every point."""
    directory = Path(directory)
    shutil.rmtree(directory, ignore_errors=True)
    recorder = CrashInjector()
    db = DurableDatabase(directory, crash=recorder)
    _run_workload(db, workload)
    db.close()
    return dict(recorder.seen)


def run_crash_trial(
    directory: Union[str, Path],
    workload: Sequence[str],
    point: str,
    occurrence: int,
    seed: int = 0,
    num_statements: Optional[int] = None,
) -> TrialResult:
    """Crash at one (point, occurrence), reopen, verify the contract.

    ``num_statements`` is the value that was passed to
    :func:`random_dml_workload` (recorded so a failed trial's repro
    line regenerates the identical workload).
    """
    directory = Path(directory)
    shutil.rmtree(directory, ignore_errors=True)
    crash = CrashInjector().at(point, occurrence)
    db = DurableDatabase(directory, crash=crash)
    shadow, inflight, crashed = _run_workload(db, workload)
    db.close()

    recovered = DurableDatabase(directory)
    recovered_state = recovered.state()
    recovered.close()

    n = num_statements if num_statements is not None else len(workload)
    expected = dump_database(shadow)
    if recovered_state == expected:
        return TrialResult(point, occurrence, seed, crashed, True, "", n)
    if inflight is not None:
        # The crash hit mid-commit: the transaction may legitimately
        # have become durable. All-or-nothing is still required.
        for sql in inflight:
            shadow.execute(sql)
        if recovered_state == dump_database(shadow):
            return TrialResult(
                point, occurrence, seed, crashed, True,
                "in-flight commit landed", n,
            )
    return TrialResult(
        point,
        occurrence,
        seed,
        crashed,
        False,
        f"recovered tables {sorted(t['name'] for t in recovered_state['tables'])} "
        "differ from the acknowledged state",
        n,
    )


def run_crash_matrix(
    base_dir: Union[str, Path],
    seeds: Sequence[int] = (0, 1, 2),
    num_statements: int = 30,
    topology: str = "single",
) -> CrashMatrixReport:
    """Crash every reachable point (first and last occurrence) per seed.

    ``topology="cluster"`` runs the same matrix against a 2-shard
    cluster (see :mod:`repro.sql.cluster.harness`).
    """
    if topology == "cluster":
        # Deferred import: repro.durability must not import repro.sql.cluster
        # at module load (the cluster package builds on this one).
        from repro.sql.cluster.harness import run_cluster_crash_matrix

        return run_cluster_crash_matrix(
            base_dir, seeds=seeds, num_statements=num_statements
        )
    base_dir = Path(base_dir)
    report = CrashMatrixReport()
    for seed in seeds:
        workload = random_dml_workload(seed, num_statements=num_statements)
        trial_dir = base_dir / f"seed{seed}"
        seen = discover_crash_points(trial_dir, workload)
        for name, count in seen.items():
            report.points[name] = max(report.points.get(name, 0), count)
        for point in sorted(seen):
            for occurrence in sorted({1, seen[point]}):
                report.trials.append(
                    run_crash_trial(
                        trial_dir, workload, point, occurrence, seed,
                        num_statements=num_statements,
                    )
                )
    return report
