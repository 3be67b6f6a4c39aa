"""One shard: a replicated pair of durable databases plus failover.

On disk a shard is a directory with two durable-database homes and a
role marker naming which one currently holds the primary::

    shard0/
      role.json        {"primary": "a", "epoch": 3}   (atomic writes)
      a/               wal.log + snapshot.json
      b/               wal.log + snapshot.json

Writes are **synchronously replicated**: a statement is acknowledged
only after (1) the primary's commit record is fsynced and (2) every
resulting WAL frame has been shipped to and fsynced by the replica.
Acknowledged therefore implies *present on both sides*, which makes
promotion safe: whichever home ``role.json`` points at — before or
after a crashed failover — contains every acknowledged write.

Crash classification is by catch-site: any
:class:`~repro.errors.SimulatedCrash` escaping a primary operation
(execute, commit, ship, apply) means the shard's primary process died
and surfaces as :class:`ShardCrashed` so the coordinator can decide
between failover (promote the replica) and degraded mode (typed
:class:`~repro.errors.ShardUnavailableError` on writes, stale-labeled
replica reads). Crashes inside :meth:`Shard.promote` itself propagate
raw — the coordinator is dying too, and recovery happens at reopen.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.durability.crash import CrashInjector, reach
from repro.durability.database import DurableDatabase, dump_database
from repro.durability.io import atomic_write_text
from repro.errors import (
    ClusterError,
    ShardUnavailableError,
    SimulatedCrash,
    WALCorruptionError,
)
from repro.sql.cluster.replicate import ShardReplica, ShardReplicator
from repro.sql.engine import QueryResult

ROLE_NAME = "role.json"
HOMES = ("a", "b")


class ShardCrashed(ClusterError):
    """A shard's primary died mid-operation (simulated crash).

    Control-flow marker between :class:`Shard` and the coordinator:
    carries the shard id and the original
    :class:`~repro.errors.SimulatedCrash` so a coordinator without
    failover can re-raise the raw crash (whole-process death) while one
    with failover promotes the replica instead.
    """

    def __init__(self, shard: int, cause: SimulatedCrash) -> None:
        super().__init__(
            f"shard {shard} primary crashed: {cause}"
        )
        self.shard = int(shard)
        self.cause = cause


class Shard:
    """A primary :class:`DurableDatabase` with a log-shipped replica."""

    def __init__(
        self,
        directory: Union[str, Path],
        shard_id: int = 0,
        crash: Optional[CrashInjector] = None,
        durable: bool = True,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.shard_id = int(shard_id)
        self.crash = crash
        self.durable = durable
        self.dead = False
        role = self._read_role()
        self.epoch = int(role["epoch"])
        self.primary_home: str = role["primary"]
        self._open_pair()

    # -- role marker -------------------------------------------------------
    @property
    def role_path(self) -> Path:
        return self.directory / ROLE_NAME

    def _read_role(self) -> Dict:
        if not self.role_path.exists():
            self._write_role(HOMES[0], 1)
            return {"primary": HOMES[0], "epoch": 1}
        role = json.loads(self.role_path.read_text(encoding="utf-8"))
        if role.get("primary") not in HOMES:
            raise ClusterError(
                f"shard {self.shard_id} role marker names unknown home "
                f"{role.get('primary')!r}"
            )
        return role

    def _write_role(self, primary: str, epoch: int) -> None:
        atomic_write_text(
            self.role_path,
            json.dumps({"primary": primary, "epoch": epoch}, sort_keys=True),
            crash=self.crash,
            label="role",
            durable=self.durable,
        )

    @property
    def replica_home(self) -> str:
        return HOMES[1] if self.primary_home == HOMES[0] else HOMES[0]

    # -- open / recovery ---------------------------------------------------
    def _open_pair(self) -> None:
        self.primary = DurableDatabase(
            self.directory / self.primary_home,
            crash=self.crash,
            durable=self.durable,
        )
        replica_dir = self.directory / self.replica_home
        try:
            self.replica = ShardReplica(
                replica_dir, crash=self.crash, durable=self.durable
            )
        except WALCorruptionError:
            # A fuzzer (or a crashed failover) left the replica home
            # unreadable; it holds no acknowledged state the primary
            # lacks, so rebuild it from scratch.
            shutil.rmtree(replica_dir, ignore_errors=True)
            self.replica = ShardReplica(
                replica_dir, crash=self.crash, durable=self.durable
            )
        self.replicator = ShardReplicator(
            self.primary, self.replica, crash=self.crash
        )
        # A replica ahead of its primary is on a divergent timeline (a
        # failover crashed between the role flip and the reseed of the
        # demoted home): its extra frames were never acknowledged.
        diverged = self.replica.watermark > self.primary.wal.last_lsn
        if diverged or not self.replicator.resync():
            self._reseed_replica()
        else:
            self.replicator.ship()  # catch up frames committed pre-crash

    def _reseed_replica(self) -> None:
        body = dump_database(self.primary.db)
        if self.primary.applied_tags:
            body["tags"] = sorted(self.primary.applied_tags)
        self.replica.reseed(body, self.primary.wal.last_lsn)
        self.replicator.resync()
        self.replicator.stats.reseeds += 1

    # -- the write path ----------------------------------------------------
    def _primary_op(self, fn):
        if self.dead:
            raise ShardUnavailableError(
                f"shard {self.shard_id} has no live primary",
                shard=self.shard_id,
            )
        try:
            return fn()
        except SimulatedCrash as exc:
            self.dead = True
            raise ShardCrashed(self.shard_id, exc) from exc

    def execute(self, sql: str, tag: Optional[str] = None) -> QueryResult:
        """Run one statement; mutations are acknowledged only once the
        commit is durable on the primary *and* shipped to the replica."""
        result = self._primary_op(lambda: self.primary.execute(sql, tag=tag))
        if not self.primary.in_transaction:
            self._primary_op(self.replicator.ship)
        return result

    def put_table(self, table, replace: bool = False, tag: Optional[str] = None) -> None:
        """Durably register a pre-built table partition (bulk seeding)."""
        self._primary_op(
            lambda: self.primary.put_table(table, replace=replace, tag=tag)
        )
        if not self.primary.in_transaction:
            self._primary_op(self.replicator.ship)

    def begin(self) -> None:
        self._primary_op(self.primary.begin)

    def commit(self) -> None:
        self._primary_op(self.primary.commit)
        self._primary_op(self.replicator.ship)

    def rollback(self) -> None:
        self._primary_op(self.primary.rollback)
        self._primary_op(self.replicator.ship)

    @property
    def in_transaction(self) -> bool:
        return self.primary.in_transaction

    def has_applied(self, tag: str) -> bool:
        """True if ``tag``'s statement is durably committed here.

        After a promotion this answers from the new primary's replayed
        log, which is what makes coordinator re-routing exactly-once.
        """
        return self.primary.has_applied(tag)

    def compact(self) -> None:
        """Compact the primary, then reseed the replica.

        Compaction resets the primary WAL, so byte-offset shipping can
        no longer describe the gap; the replica restarts from a full
        snapshot at the same LSN.
        """
        self._primary_op(self.replicator.ship)
        self._primary_op(self.primary.compact)
        self._primary_op(self._reseed_replica)

    # -- reads -------------------------------------------------------------
    def query(self, sql: str) -> QueryResult:
        """A read against the primary (fresh, fails when it is dead)."""
        return self._primary_op(lambda: self.primary.execute(sql))

    def replication_lag(self) -> int:
        return self.replicator.lag()

    # -- failover ----------------------------------------------------------
    def kill(self) -> None:
        """Declare the primary dead (external failure detection)."""
        self.dead = True

    def promote(self) -> None:
        """Fail over: the replica home becomes the primary.

        Steps, in crash-safe order: replay the replica's WAL into a
        fresh :class:`DurableDatabase` (the replica home is kept in
        that on-disk format for exactly this moment), fold it into a
        snapshot, atomically flip ``role.json`` (the commit point of
        the failover), then wipe and reseed the demoted home as the new
        replica. A crash anywhere in between leaves ``role.json``
        naming a home that contains every acknowledged write.
        """
        if not self.dead:
            raise ClusterError(
                f"shard {self.shard_id} primary is alive; refusing to promote"
            )
        old_home, new_home = self.primary_home, self.replica_home
        self.primary.close()
        self.replica.close()
        reach(self.crash, "promote-before-replay")
        promoted = DurableDatabase(
            self.directory / new_home,
            crash=self.crash,
            durable=self.durable,
        )
        reach(self.crash, "promote-after-replay")
        promoted.compact()
        self.epoch += 1
        self._write_role(new_home, self.epoch)
        self.primary_home = new_home
        self.primary = promoted
        reach(self.crash, "promote-before-reseed")
        shutil.rmtree(self.directory / old_home, ignore_errors=True)
        self.replica = ShardReplica(
            self.directory / old_home, crash=self.crash, durable=self.durable
        )
        self.replicator = ShardReplicator(
            self.primary, self.replica, crash=self.crash
        )
        self._reseed_replica()
        self.dead = False

    # -- introspection -----------------------------------------------------
    def table_names(self) -> List[str]:
        return self.primary.table_names()

    def state(self) -> Dict:
        return self.primary.state()

    def close(self) -> None:
        self.primary.close()
        self.replica.close()
