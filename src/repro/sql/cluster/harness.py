"""Crash-matrix harness for the sharded data plane.

Extends the single-node recovery harness
(:mod:`repro.durability.harness`) to cluster topologies. The same
seeded workloads drive a :class:`ClusterDatabase` instead of a
:class:`~repro.durability.DurableDatabase`, in two modes:

* **whole-cluster crashes** (``failover=False``) — a
  :class:`~repro.errors.SimulatedCrash` at any reachable point kills
  the coordinator and every shard at once. The trial then reopens the
  directory and requires the recovered, merged cluster state to equal
  the acknowledged shadow (modulo a commit that was legitimately in
  flight) — the single-node durability contract, now spanning shard
  WALs, replica logs, role markers, cluster metadata, and the
  coordinator's prepare/done log.

* **failover trials** (``failover=True``) — a crash inside a shard's
  primary is *absorbed*: the coordinator promotes the replica and
  re-routes the in-flight statement exactly-once, so the workload runs
  to completion and the final state must equal a never-crashed run.
  Crash points outside any shard (coordinator log, cluster metadata,
  promotion itself) still kill the whole process and are verified the
  whole-cluster way.

Double-crash trials chain the two: a first crash at a shard-side
shipping point triggers a failover, and a second armed point inside
``promote()`` kills the process mid-failover — recovery must still
converge (the role marker flips atomically, and either home holds
every acknowledged write).
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from repro.durability.crash import CrashInjector
from repro.durability.database import dump_database
from repro.durability.harness import (
    CrashMatrixReport,
    TrialResult,
    _run_workload,
    random_dml_workload,
)
from repro.errors import SimulatedCrash
from repro.sql.cluster.coordinator import ClusterDatabase, canonicalize
from repro.sql.engine import Database

#: crash points inside Shard.promote(), only reachable via a failover
PROMOTE_POINTS = (
    "promote-before-replay",
    "promote-after-replay",
    "promote-before-reseed",
)


def discover_cluster_crash_points(
    directory: Union[str, Path],
    workload: Sequence[str],
    num_shards: int = 2,
) -> Dict[str, int]:
    """Run the workload crash-free and count reaches of every point."""
    directory = Path(directory)
    shutil.rmtree(directory, ignore_errors=True)
    recorder = CrashInjector()
    cluster = ClusterDatabase(
        directory, num_shards=num_shards, crash=recorder, failover=False
    )
    _run_workload(cluster, workload)
    cluster.close()
    return dict(recorder.seen)


def run_cluster_crash_trial(
    directory: Union[str, Path],
    workload: Sequence[str],
    point: str,
    occurrence: int,
    seed: int = 0,
    num_statements: Optional[int] = None,
    num_shards: int = 2,
    failover: bool = False,
    trigger_point: Optional[str] = None,
    trigger_occurrence: int = 1,
) -> TrialResult:
    """Crash a cluster at one (point, occurrence), recover, verify.

    With ``failover=True`` shard-side crashes are absorbed by
    promotion, so the workload usually completes and the live cluster
    is verified *before* the reopen as well. ``trigger_point`` arms a
    second, earlier crash (absorbed by failover) so that ``point`` can
    name a promotion-internal site — the double-crash mode.
    """
    directory = Path(directory)
    shutil.rmtree(directory, ignore_errors=True)
    crash = CrashInjector().at(point, occurrence)
    if trigger_point is not None:
        crash.at(trigger_point, trigger_occurrence)
    n = num_statements if num_statements is not None else len(workload)

    def build(ok: bool, crashed: bool, detail: str = "") -> TrialResult:
        return TrialResult(
            point, occurrence, seed, crashed, ok, detail, n,
            topology="cluster",
            trigger_point=trigger_point or "",
            trigger_occurrence=trigger_occurrence if trigger_point else 0,
        )

    live_state = None
    try:
        cluster = ClusterDatabase(
            directory,
            num_shards=num_shards,
            crash=crash,
            failover=failover,
        )
    except SimulatedCrash:
        shadow, inflight, crashed = Database(), None, True
    else:
        shadow, inflight, crashed = _run_workload(cluster, workload)
        if not crashed:
            live_state = cluster.state()
        cluster.close()

    expected = canonicalize(dump_database(shadow))
    if live_state is not None and live_state != expected:
        return build(
            False, crashed,
            "live post-failover state differs from the acknowledged state",
        )

    recovered = ClusterDatabase(directory, num_shards=num_shards)
    recovered_state = recovered.state()
    recovered.close()

    if recovered_state == expected:
        return build(True, crashed)
    if inflight is not None:
        # The crash hit mid-commit: the transaction may legitimately
        # have become durable. All-or-nothing is still required.
        for sql in inflight:
            shadow.execute(sql)
        if recovered_state == canonicalize(dump_database(shadow)):
            return build(True, crashed, "in-flight commit landed")
    return build(
        False,
        crashed,
        f"recovered tables "
        f"{sorted(t['name'] for t in recovered_state['tables'])} "
        "differ from the acknowledged state",
    )


def run_cluster_crash_matrix(
    base_dir: Union[str, Path],
    seeds: Sequence[int] = (0, 1, 2),
    num_statements: int = 30,
    num_shards: int = 2,
) -> CrashMatrixReport:
    """Crash every reachable point (first and last occurrence) per seed."""
    base_dir = Path(base_dir)
    report = CrashMatrixReport()
    for seed in seeds:
        workload = random_dml_workload(seed, num_statements=num_statements)
        trial_dir = base_dir / f"seed{seed}"
        seen = discover_cluster_crash_points(trial_dir, workload, num_shards)
        for name, count in seen.items():
            report.points[name] = max(report.points.get(name, 0), count)
        for point in sorted(seen):
            for occurrence in sorted({1, seen[point]}):
                report.trials.append(
                    run_cluster_crash_trial(
                        trial_dir,
                        workload,
                        point,
                        occurrence,
                        seed,
                        num_statements=num_statements,
                        num_shards=num_shards,
                    )
                )
    return report


def run_cluster_failover_matrix(
    base_dir: Union[str, Path],
    seed: int = 0,
    num_statements: int = 30,
    num_shards: int = 2,
) -> CrashMatrixReport:
    """Failover-mode trials, including crashes *inside* promotion.

    Every reachable point is tried with failover enabled (shard-side
    crashes are absorbed, the rest verified as whole-cluster crashes).
    Then each shipping-path point doubles as the trigger for a second
    crash armed at every promotion-internal point — kill the primary,
    then kill the process mid-promotion — and recovery must still hold.
    """
    base_dir = Path(base_dir)
    report = CrashMatrixReport()
    workload = random_dml_workload(seed, num_statements=num_statements)
    trial_dir = base_dir / f"seed{seed}"
    seen = discover_cluster_crash_points(trial_dir, workload, num_shards)
    report.points.update(seen)
    for point in sorted(seen):
        report.trials.append(
            run_cluster_crash_trial(
                trial_dir, workload, point, 1, seed,
                num_statements=num_statements,
                num_shards=num_shards,
                failover=True,
            )
        )
    triggers = [name for name in sorted(seen) if name.startswith("ship-")]
    for trigger in triggers:
        for promote_point in PROMOTE_POINTS:
            report.trials.append(
                run_cluster_crash_trial(
                    trial_dir, workload, promote_point, 1, seed,
                    num_statements=num_statements,
                    num_shards=num_shards,
                    failover=True,
                    trigger_point=trigger,
                    trigger_occurrence=1,
                )
            )
    return report
