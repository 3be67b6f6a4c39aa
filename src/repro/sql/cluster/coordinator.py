"""The cluster coordinator: routing, 2PC-lite commits, failover.

:class:`ClusterDatabase` presents the same ``execute(sql)`` surface as
:class:`~repro.sql.Database`, but hash-partitions every table across N
:class:`~repro.sql.cluster.shard.Shard` pairs (each a primary
:class:`~repro.durability.DurableDatabase` with a log-shipped replica):

* **DDL** broadcasts to every shard, so all shards share the schema;
* **INSERT** splits its VALUES rows by the partition key's hash;
* **UPDATE/DELETE** prune to one shard when the WHERE clause pins the
  partition key, else broadcast (filters apply shard-locally);
* **SELECT** runs the plan :func:`~repro.sql.cluster.scatter.plan_select`
  chooses — pruned, scattered, two-phase aggregated, or gathered —
  running the shards one after another on the calling thread and
  merging at the coordinator.

Every write carries an **exactly-once tag** ``e{epoch}.{seq}.s{shard}``
(epoch bumps at each coordinator open, making tags collision-free
across restarts). Tags persist in each shard's WAL and snapshot, so
after *any* crash the question "did this statement commit?" has a
durable answer — the foundation for both failover re-routing and
multi-shard commit recovery.

Multi-shard transactions use a 2PC-lite protocol on the coordinator's
own CRC-framed log: a fsynced ``prepare`` record (the commit decision,
listing every shard's tagged statements) precedes the per-shard commit
fan-out, and a ``done`` record retires it. Reopening the coordinator
resolves in-doubt prepares: if any tagged statement is durable anywhere
the transaction rolls forward (missing statements re-applied
tag-checked), otherwise it is presumed aborted.

On a primary crash (:class:`~repro.sql.cluster.shard.ShardCrashed`)
with ``failover=True`` the coordinator promotes the shard's replica and
re-routes the in-flight statement — tag-checked, so a statement whose
ack was lost after commit is never applied twice. With
``failover=False`` the raw crash propagates (whole-process death) or,
for an already-dead shard, writes raise
:class:`~repro.errors.ShardUnavailableError` and reads either fail or
are served stale-labeled from the replica (``allow_stale=True``).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.durability.crash import CrashInjector
from repro.durability.wal import WriteAheadLog, read_wal
from repro.durability.io import atomic_write_text
from repro.errors import (
    ClusterError,
    ShardUnavailableError,
    SQLError,
    WALCorruptionError,
)
from repro.sql.ast import (
    CreateIndex,
    CreateTable,
    DeleteFrom,
    DropTable,
    ExplainQuery,
    InsertInto,
    SelectQuery,
    UpdateTable,
)
from repro.sql.catalog import Catalog
from repro.sql.cluster.partition import PartitionMap
from repro.sql.cluster.scatter import (
    GATHER,
    PARTIAL_AGG,
    SCATTER,
    SINGLE_SHARD,
    DistributedPlan,
    merge_scatter,
    partition_key_equality,
    plan_select,
)
from repro.sql.cluster.shard import Shard, ShardCrashed
from repro.sql.engine import Database, QueryResult
from repro.sql.eval import RowEnv, evaluate
from repro.sql.executor import (
    ExecutionStats,
    ExecutorOptions,
    _sort_key,
    execute_select,
    explain_plan,
)
from repro.sql.parser import parse_sql
from repro.sql.schema import TableSchema
from repro.sql.table import Table

CLUSTER_META = "cluster.json"
COORDINATOR_LOG = "coordinator.log"


@dataclass
class ClusterQueryResult(QueryResult):
    """A :class:`QueryResult` plus distributed-execution provenance."""

    strategy: str = ""
    #: shard ids that executed (coordinator-only merges excluded)
    shards: List[int] = field(default_factory=list)
    #: True when any contributing read came from a replica of a dead
    #: primary — the rows may trail the last acknowledged writes
    stale: bool = False
    #: worst replication lag (records) among stale contributors
    stale_lag: int = 0
    #: why the planner fell back to gather (empty otherwise)
    reason: str = ""


@dataclass
class ClusterStats:
    """Lifetime counters of one coordinator."""

    selects: int = 0
    by_strategy: Dict[str, int] = field(default_factory=dict)
    failovers: int = 0
    #: statements re-applied on a promoted primary after a crash
    reroutes_applied: int = 0
    #: re-routes skipped because the tag was already durable
    reroutes_deduped: int = 0
    last_shard_stats: List[ExecutionStats] = field(default_factory=list)
    last_merge_stats: Optional[ExecutionStats] = None

    def record_select(self, strategy: str) -> None:
        self.selects += 1
        self.by_strategy[strategy] = self.by_strategy.get(strategy, 0) + 1

    def modeled_parallel_speedup(self) -> float:
        """Critical-path speedup of the last fan-out query.

        Work is modeled as executor row touches (scan + join probes).
        A single node does the *sum* of all shards' work serially; the
        cluster's wall-clock would be the *slowest shard* plus the merge.
        The ratio is the speedup an N-worker data plane would buy; this
        coordinator runs the shards one after another on the calling
        thread, so it is a model, not a measurement.
        """

        def touches(stats: ExecutionStats) -> int:
            return stats.rows_scanned + stats.join_probes

        per_shard = [touches(s) for s in self.last_shard_stats]
        total = sum(per_shard)
        merge = touches(self.last_merge_stats) if self.last_merge_stats else 0
        critical = max(per_shard, default=0) + merge
        if critical <= 0 or total <= 0:
            return 1.0
        return (total + merge) / critical


def canonicalize(dump: Dict) -> Dict:
    """Order-insensitive form of a :func:`dump_database` dict.

    Partitioned storage interleaves rows differently from a single
    node's insert order, so state comparisons sort each table's rows by
    the executor's SQL value ordering (and drop index metadata, which
    is placement-local).
    """
    tables = []
    for table in sorted(dump.get("tables", ()), key=lambda t: t["name"].lower()):
        rows = [list(row) for row in table["rows"]]
        rows.sort(key=lambda row: tuple(_sort_key(value) for value in row))
        tables.append(
            {"name": table["name"], "columns": table["columns"], "rows": rows}
        )
    return {"tables": tables}


@dataclass
class _ClusterTxn:
    """Coordinator-side state of one open multi-shard transaction."""

    xid: str
    #: shard id -> [(tag, sql), ...] successfully applied there
    buffered: Dict[int, List[Tuple[str, str]]] = field(default_factory=dict)
    begun: Set[int] = field(default_factory=set)


class ClusterDatabase:
    """A hash-partitioned SQL database over replicated durable shards."""

    def __init__(
        self,
        directory: Union[str, Path],
        num_shards: int = 2,
        crash: Optional[CrashInjector] = None,
        durable: bool = True,
        failover: bool = True,
        allow_stale: bool = False,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.crash = crash
        self.durable = durable
        self.failover = failover
        self.allow_stale = allow_stale
        self.options = ExecutorOptions()
        self.stats = ClusterStats()
        self._txn: Optional[_ClusterTxn] = None
        self._seq = 0

        meta_path = self.directory / CLUSTER_META
        if meta_path.exists():
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            self.pmap = PartitionMap.from_dict(meta["partition_map"])
            self.epoch = int(meta["epoch"]) + 1
        else:
            self.pmap = PartitionMap(num_shards)
            self.epoch = 1
        self._write_meta()

        self.shards = [
            Shard(
                self.directory / f"shard{i}",
                shard_id=i,
                crash=self.crash,
                durable=self.durable,
            )
            for i in range(self.pmap.num_shards)
        ]
        self._open_coordinator_log()
        self._sync_pmap_with_catalog()

    @classmethod
    def from_database(
        cls,
        db: Database,
        directory: Union[str, Path],
        num_shards: int = 2,
        **kwargs,
    ) -> "ClusterDatabase":
        """Partition an existing single-node database into a cluster."""
        cluster = cls(directory, num_shards=num_shards, **kwargs)
        for name in db.table_names():
            source = db.table(name)
            cluster.pmap.register(source.schema)
            key_position = source.schema.index_of(cluster.pmap.key_column(name))
            parts: List[List[Tuple]] = [
                [] for _ in range(cluster.pmap.num_shards)
            ]
            for row in source.rows:
                parts[cluster.pmap.shard_of(name, row[key_position])].append(row)
            for shard in cluster.shards:
                partition = Table(
                    TableSchema(source.schema.name, list(source.schema.columns)),
                    rows=parts[shard.shard_id],
                )
                for indexed in source.index_names():
                    partition.create_index(indexed)
                shard.put_table(
                    partition, tag=cluster._next_tag(shard.shard_id)
                )
        cluster._write_meta()
        return cluster

    # -- metadata / logs ---------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.pmap.num_shards

    @property
    def catalog(self) -> Catalog:
        """The authoritative schema catalog (shard 0's primary)."""
        return self.shards[0].primary.db.catalog

    def _write_meta(self) -> None:
        atomic_write_text(
            self.directory / CLUSTER_META,
            json.dumps(
                {
                    "num_shards": self.pmap.num_shards,
                    "epoch": self.epoch,
                    "partition_map": self.pmap.to_dict(),
                },
                sort_keys=True,
            ),
            crash=self.crash,
            label="cluster",
            durable=self.durable,
        )

    def _next_tag(self, shard_id: int) -> str:
        self._seq += 1
        return f"e{self.epoch}.{self._seq}.s{shard_id}"

    def _sync_pmap_with_catalog(self) -> None:
        """Heal the partition map against shard 0's catalog.

        A crash between a DDL fan-out and the ``cluster.json`` write
        leaves the map stale; prepare resolution has already made the
        shard catalogs consistent, so they are authoritative.
        """
        live = {name.lower(): name for name in self.catalog.names()}
        changed = False
        for lowered, name in live.items():
            if not self.pmap.is_registered(lowered):
                self.pmap.register(self.catalog.get(name).schema)
                changed = True
        for registered in self.pmap.table_names():
            if registered not in live:
                self.pmap.unregister(registered)
                changed = True
        if changed:
            self._write_meta()

    def _open_coordinator_log(self) -> None:
        path = self.directory / COORDINATOR_LOG
        scan = read_wal(path)
        if scan.error is not None:
            raise WALCorruptionError(
                f"coordinator log {path} is corrupt: {scan.error}"
            )
        self.coordinator_log = WriteAheadLog(
            path,
            crash=self.crash,
            durable=self.durable,
            next_lsn=scan.last_lsn + 1,
        )
        if scan.torn_bytes:
            self.coordinator_log.truncate_to(scan.valid_bytes)
        self._resolve_prepares(scan.records)

    def _resolve_prepares(self, records: List[Dict]) -> None:
        """Settle in-doubt multi-shard commits left by a crash.

        A ``prepare`` without a matching ``done`` is in doubt. If any
        of its tagged statements is durable on its shard, the commit
        decision was made — roll the rest forward (tag-checked). If no
        tag is durable anywhere, no shard acknowledged: presumed abort,
        and the shards' uncommitted WAL frames are already invisible.
        """
        finished = {
            record["xid"] for record in records if record.get("t") == "done"
        }
        for record in records:
            if record.get("t") != "prepare" or record["xid"] in finished:
                continue
            shard_statements = {
                int(shard_id): [(tag, sql) for tag, sql in pairs]
                for shard_id, pairs in record["shards"].items()
            }
            committed = any(
                self.shards[shard_id].has_applied(tag)
                for shard_id, pairs in shard_statements.items()
                for tag, _ in pairs
            )
            if not committed:
                continue
            for shard_id, pairs in shard_statements.items():
                for tag, sql in pairs:
                    if self.shards[shard_id].has_applied(tag):
                        continue
                    self._autocommit_on_shard(shard_id, sql, tag)
                    self.stats.reroutes_applied += 1
        # Everything is settled; start the log fresh for this epoch.
        self.coordinator_log.reset()

    # -- failover plumbing -------------------------------------------------
    def _promote_or_die(self, shard_id: int, crashed: ShardCrashed) -> Shard:
        if not self.failover:
            # Without failover a shard crash is a whole-process crash;
            # surface the raw simulated crash for the recovery harness.
            raise crashed.cause
        self.stats.failovers += 1
        shard = self.shards[shard_id]
        shard.promote()
        return shard

    def _ensure_live(self, shard_id: int) -> Tuple[Shard, bool]:
        """(shard, was_promoted): fail over a shard declared dead *before*
        the operation (external ``kill()``), which raises
        :class:`ShardUnavailableError` rather than :class:`ShardCrashed`
        and so never reaches the mid-operation promotion handlers."""
        shard = self.shards[shard_id]
        if shard.dead and self.failover:
            self.stats.failovers += 1
            shard.promote()
            return shard, True
        return shard, False

    def _autocommit_on_shard(
        self, shard_id: int, sql: str, tag: str
    ) -> QueryResult:
        shard, _ = self._ensure_live(shard_id)
        try:
            return shard.execute(sql, tag=tag)
        except ShardCrashed as crashed:
            shard = self._promote_or_die(shard_id, crashed)
            if shard.has_applied(tag):
                # The commit landed before the crash; only the ack was
                # lost. Re-applying would double-count — skip.
                self.stats.reroutes_deduped += 1
                return QueryResult(columns=[], rows=[], rowcount=0)
            self.stats.reroutes_applied += 1
            return shard.execute(sql, tag=tag)

    def _txn_on_shard(self, shard_id: int, sql: str, tag: str) -> QueryResult:
        txn = self._txn
        assert txn is not None
        shard, promoted = self._ensure_live(shard_id)
        if shard_id not in txn.begun:
            try:
                shard.begin()
            except ShardCrashed as crashed:
                shard = self._promote_or_die(shard_id, crashed)
                shard.begin()
            txn.begun.add(shard_id)
        elif promoted:
            # The promoted primary never saw this transaction's
            # uncommitted frames; rebuild it from the coordinator's
            # buffer before running the new statement.
            shard.begin()
            for earlier_tag, earlier_sql in txn.buffered.get(shard_id, []):
                shard.execute(earlier_sql, tag=earlier_tag)
            self.stats.reroutes_applied += 1
        try:
            result = shard.execute(sql, tag=tag)
        except ShardCrashed as crashed:
            shard = self._promote_or_die(shard_id, crashed)
            # The promoted primary never saw this transaction's frames
            # (they were uncommitted, hence unshipped at the batch
            # boundary or dropped at replay). Rebuild it from the
            # coordinator's buffer, then retry the current statement.
            shard.begin()
            for earlier_tag, earlier_sql in txn.buffered.get(shard_id, []):
                shard.execute(earlier_sql, tag=earlier_tag)
            self.stats.reroutes_applied += 1
            result = shard.execute(sql, tag=tag)
        except SQLError:
            # PostgreSQL-style: a statement error aborts the enclosing
            # transaction — on every shard, so the cluster stays atomic.
            self._abort_cluster_txn()
            raise
        txn.buffered.setdefault(shard_id, []).append((tag, sql))
        return result

    def _apply_many(self, statements: List[Tuple[int, str]]) -> int:
        """Apply ``(shard, sql)`` pairs; returns the summed rowcount.

        Inside a cluster transaction the pairs simply join it. In
        autocommit mode a batch touching more than one shard gets the
        same prepare/done protocol as a transaction commit: a statement
        split across shards (or broadcast to all of them) must not
        half-apply when a crash lands between the per-shard commits.
        """
        if self._txn is not None:
            total = 0
            for shard_id, sql in statements:
                result = self._txn_on_shard(
                    shard_id, sql, self._next_tag(shard_id)
                )
                total += result.rowcount
            return total
        if len(statements) == 1:
            shard_id, sql = statements[0]
            tag = self._next_tag(shard_id)
            return self._autocommit_on_shard(shard_id, sql, tag).rowcount
        tagged = [
            (shard_id, sql, self._next_tag(shard_id))
            for shard_id, sql in statements
        ]
        self._seq += 1
        xid = f"s{self.epoch}.{self._seq}"
        payload: Dict[str, List[List[str]]] = {}
        for shard_id, sql, tag in tagged:
            payload.setdefault(str(shard_id), []).append([tag, sql])
        self.coordinator_log.append(
            {"t": "prepare", "xid": xid, "shards": payload}, sync=True
        )
        total = 0
        for shard_id, sql, tag in tagged:
            total += self._autocommit_on_shard(shard_id, sql, tag).rowcount
        self.coordinator_log.append({"t": "done", "xid": xid}, sync=False)
        return total

    # -- transactions ------------------------------------------------------
    def begin(self) -> None:
        if self._txn is not None:
            raise ClusterError(
                f"transaction {self._txn.xid} is already active (no nesting)"
            )
        self._seq += 1
        self._txn = _ClusterTxn(xid=f"x{self.epoch}.{self._seq}")

    def commit(self) -> None:
        if self._txn is None:
            raise ClusterError("no active cluster transaction to commit")
        txn, self._txn = self._txn, None
        involved = sorted(txn.begun)
        if not involved:
            return
        self.coordinator_log.append(
            {
                "t": "prepare",
                "xid": txn.xid,
                "shards": {
                    str(shard_id): txn.buffered.get(shard_id, [])
                    for shard_id in involved
                },
            },
            sync=True,
        )
        # The prepare record is the commit decision: from here the
        # transaction rolls forward on every shard, even across crashes.
        for shard_id in involved:
            shard, promoted = self._ensure_live(shard_id)
            if promoted:
                # Killed between a statement and the commit: the new
                # primary has no open transaction, only the prepare
                # record's intent. Roll the buffer forward tag-checked.
                self._roll_forward(shard, txn.buffered.get(shard_id, []))
                continue
            try:
                shard.commit()
            except ShardCrashed as crashed:
                shard = self._promote_or_die(shard_id, crashed)
                self._roll_forward(shard, txn.buffered.get(shard_id, []))
        self.coordinator_log.append({"t": "done", "xid": txn.xid}, sync=False)

    def _roll_forward(self, shard: Shard, pairs: List) -> None:
        """Re-apply ``(tag, sql)`` pairs on a freshly promoted primary,
        skipping any whose effect already survived the failover."""
        for tag, sql in pairs:
            if shard.has_applied(tag):
                self.stats.reroutes_deduped += 1
                continue
            self.stats.reroutes_applied += 1
            shard.execute(sql, tag=tag)

    def rollback(self) -> None:
        if self._txn is None:
            raise ClusterError("no active cluster transaction to roll back")
        self._abort_cluster_txn()

    def _abort_cluster_txn(self) -> None:
        txn, self._txn = self._txn, None
        if txn is None:
            return
        for shard_id in sorted(txn.begun):
            shard = self.shards[shard_id]
            if shard.dead or not shard.in_transaction:
                continue  # a crashed/aborted shard already lost the frames
            try:
                shard.rollback()
            except ShardCrashed as crashed:
                # The promoted primary never had the transaction.
                self._promote_or_die(shard_id, crashed)

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None

    # -- statement routing -------------------------------------------------
    def execute(self, sql: str) -> QueryResult:
        """Parse and run one SQL statement across the cluster."""
        statement = parse_sql(sql)
        if isinstance(statement, SelectQuery):
            return self._execute_select(statement)
        if isinstance(statement, ExplainQuery):
            return self._execute_explain(statement)
        if isinstance(statement, CreateTable):
            self._require_no_txn("CREATE TABLE")
            result = self._broadcast(sql)
            schema = TableSchema.build(statement.name, list(statement.columns))
            self.pmap.register(schema)
            self._write_meta()
            return result
        if isinstance(statement, DropTable):
            self._require_no_txn("DROP TABLE")
            result = self._broadcast(sql)
            self.pmap.unregister(statement.name)
            self._write_meta()
            return result
        if isinstance(statement, CreateIndex):
            self._require_no_txn("CREATE INDEX")
            return self._broadcast(sql)
        if isinstance(statement, InsertInto):
            return self._execute_insert(statement, sql)
        if isinstance(statement, UpdateTable):
            self._guard_key_update(statement)
            return self._execute_filtered_dml(
                statement.name, statement.where, sql
            )
        if isinstance(statement, DeleteFrom):
            return self._execute_filtered_dml(
                statement.name, statement.where, sql
            )
        raise ClusterError(
            f"unsupported statement {type(statement).__name__} for the cluster"
        )

    def _require_no_txn(self, what: str) -> None:
        if self._txn is not None:
            raise ClusterError(
                f"{what} inside a cluster transaction is not supported"
            )

    def _broadcast(self, sql: str) -> QueryResult:
        total = self._apply_many(
            [(shard.shard_id, sql) for shard in self.shards]
        )
        return QueryResult(columns=[], rows=[], rowcount=total)

    def _guard_key_update(self, statement: UpdateTable) -> None:
        if not self.pmap.is_registered(statement.name):
            return
        key_column = self.pmap.key_column(statement.name).lower()
        for column, _ in statement.assignments:
            if column.lower() == key_column:
                raise ClusterError(
                    f"UPDATE of partition key {statement.name}.{column} "
                    "would move rows between shards; re-insert instead"
                )

    def _execute_filtered_dml(
        self, table: str, where, sql: str
    ) -> QueryResult:
        if self.pmap.is_registered(table):
            pinned = partition_key_equality(where, table, table, self.pmap)
            if pinned is not None:
                shard_id = self.pmap.shard_of(table, pinned[0])
                total = self._apply_many([(shard_id, sql)])
                return QueryResult(columns=[], rows=[], rowcount=total)
        return self._broadcast(sql)

    def _execute_insert(self, statement: InsertInto, sql: str) -> QueryResult:
        """Split the VALUES rows by shard; when they all go to one shard,
        ship ``sql`` as written, so the shard reuses its parse."""
        table = statement.name
        if not self.pmap.is_registered(table):
            raise ClusterError(
                f"table {table!r} is not registered with the cluster"
            )
        schema = self.catalog.get(table).schema
        key_column = self.pmap.key_column(table)
        key_position: Optional[int]
        if statement.columns:
            lowered = [c.lower() for c in statement.columns]
            key_position = (
                lowered.index(key_column.lower())
                if key_column.lower() in lowered
                else None
            )
        else:
            key_position = schema.index_of(key_column)
        env = RowEnv()  # INSERT values are constant expressions
        groups: Dict[int, List[Tuple]] = {}
        for row in statement.rows:
            value = (
                evaluate(row[key_position], env)
                if key_position is not None and key_position < len(row)
                else None
            )
            shard_id = self.pmap.shard_of(table, value)
            groups.setdefault(shard_id, []).append(row)
        if len(groups) == 1:
            statements = [(shard_id, sql)]
        else:
            statements = [
                (shard_id, dataclasses.replace(statement, rows=tuple(rows)).sql())
                for shard_id, rows in sorted(groups.items())
            ]
        total = self._apply_many(statements)
        return QueryResult(columns=[], rows=[], rowcount=total)

    # -- SELECT execution --------------------------------------------------
    def _read_source(self, shard: Shard) -> Tuple[Catalog, bool, int]:
        """(catalog, is_stale, lag) to read one shard from."""
        shard, _ = self._ensure_live(shard.shard_id)
        if not shard.dead:
            return shard.primary.db.catalog, False, 0
        if self.allow_stale:
            return shard.replica.db.catalog, True, shard.replication_lag()
        raise ShardUnavailableError(
            f"shard {shard.shard_id} has no live primary and stale reads "
            "are not allowed",
            shard=shard.shard_id,
        )

    def _execute_select(self, query: SelectQuery) -> ClusterQueryResult:
        plan = plan_select(query, self.pmap, self.catalog)
        self.stats.record_select(plan.strategy)
        if plan.strategy == SINGLE_SHARD:
            return self._run_single_shard(plan, query)
        if plan.strategy in (SCATTER, PARTIAL_AGG):
            return self._run_fan_out(plan, query)
        return self._run_gather(plan, query)

    def _run_single_shard(
        self, plan: DistributedPlan, query: SelectQuery
    ) -> ClusterQueryResult:
        shard = self.shards[plan.target_shard or 0]
        catalog, stale, lag = self._read_source(shard)
        stats = ExecutionStats()
        columns, rows = execute_select(query, catalog, self.options, stats)
        self.stats.last_shard_stats = [stats]
        self.stats.last_merge_stats = None
        return ClusterQueryResult(
            columns=columns,
            rows=rows,
            rowcount=len(rows),
            strategy=SINGLE_SHARD,
            shards=[shard.shard_id],
            stale=stale,
            stale_lag=lag,
        )

    def _fan_out(
        self, shard_query: SelectQuery
    ) -> Tuple[List[Tuple[List[str], List[Tuple]]], List[ExecutionStats], bool, int]:
        sources = [self._read_source(shard) for shard in self.shards]
        stats_list = [ExecutionStats() for _ in self.shards]
        results = [
            execute_select(shard_query, catalog, self.options, stats)
            for (catalog, _, _), stats in zip(sources, stats_list)
        ]
        stale = any(is_stale for _, is_stale, _ in sources)
        lag = max((l for _, is_stale, l in sources if is_stale), default=0)
        return results, stats_list, stale, lag

    def _run_fan_out(
        self, plan: DistributedPlan, query: SelectQuery
    ) -> ClusterQueryResult:
        assert plan.shard_query is not None
        results, stats_list, stale, lag = self._fan_out(plan.shard_query)
        self.stats.last_shard_stats = stats_list
        if plan.strategy == SCATTER:
            columns, rows = merge_scatter(plan, query, results)
            self.stats.last_merge_stats = None
        else:
            columns, rows = self._merge_partials(plan, results)
        return ClusterQueryResult(
            columns=columns,
            rows=rows,
            rowcount=len(rows),
            strategy=plan.strategy,
            shards=[shard.shard_id for shard in self.shards],
            stale=stale,
            stale_lag=lag,
        )

    def _merge_partials(
        self,
        plan: DistributedPlan,
        results: List[Tuple[List[str], List[Tuple]]],
    ) -> Tuple[List[str], List[Tuple]]:
        assert plan.partial_schema is not None and plan.merge_query is not None
        partials = Table(
            TableSchema(
                plan.partial_schema.name, list(plan.partial_schema.columns)
            )
        )
        for _, rows in results:
            partials.insert_many(rows)
        scratch = Database(self.options)
        scratch.add_table(partials)
        merge_stats = ExecutionStats()
        columns, rows = execute_select(
            plan.merge_query, scratch.catalog, self.options, merge_stats
        )
        self.stats.last_merge_stats = merge_stats
        return columns, rows

    def _run_gather(
        self, plan: DistributedPlan, query: SelectQuery
    ) -> ClusterQueryResult:
        sources = [self._read_source(shard) for shard in self.shards]
        scratch = Database(self.options)
        for name in self.catalog.names():
            schema = self.catalog.get(name).schema
            union = Table(TableSchema(schema.name, list(schema.columns)))
            for catalog, _, _ in sources:
                partition = catalog.resolve(name)
                if partition is not None:
                    union.rows.extend(partition.rows)  # already typed tuples
            for indexed in self.catalog.get(name).index_names():
                union.create_index(indexed)
            scratch.add_table(union)
        stats = ExecutionStats()
        columns, rows = execute_select(query, scratch.catalog, self.options, stats)
        self.stats.last_shard_stats = [stats]
        self.stats.last_merge_stats = None
        stale = any(is_stale for _, is_stale, _ in sources)
        lag = max((l for _, is_stale, l in sources if is_stale), default=0)
        return ClusterQueryResult(
            columns=columns,
            rows=rows,
            rowcount=len(rows),
            strategy=GATHER,
            shards=[shard.shard_id for shard in self.shards],
            stale=stale,
            stale_lag=lag,
            reason=plan.reason,
        )

    def _execute_explain(self, statement: ExplainQuery) -> QueryResult:
        plan = plan_select(statement.query, self.pmap, self.catalog)
        lines = [f"Cluster: strategy={plan.strategy}"]
        if plan.strategy == SINGLE_SHARD:
            lines[0] += f" shard={plan.target_shard}"
        elif plan.strategy == GATHER:
            lines[0] += f" ({plan.reason})"
        else:
            lines[0] += f" shards={self.num_shards}"
        inner = plan.shard_query if plan.shard_query is not None else statement.query
        lines.extend(
            "  " + line
            for line in explain_plan(inner, self.catalog, self.options)
        )
        if plan.merge_query is not None:
            lines.append(f"  Merge: {plan.merge_query.sql()}")
        return QueryResult(
            columns=["plan"],
            rows=[(line,) for line in lines],
            rowcount=len(lines),
        )

    # -- maintenance / introspection ---------------------------------------
    def compact(self) -> None:
        """Compact every shard (snapshot + WAL reset + replica reseed)."""
        if self._txn is not None:
            raise ClusterError("cannot compact inside a cluster transaction")
        for shard in self.shards:
            shard, _ = self._ensure_live(shard.shard_id)
            try:
                shard.compact()
            except ShardCrashed as crashed:
                self._promote_or_die(shard.shard_id, crashed)

    def replication_lag(self) -> int:
        """Worst current primary→replica lag across shards, in records."""
        return max(shard.replication_lag() for shard in self.shards)

    def table_names(self) -> List[str]:
        return self.catalog.names()

    def state(self) -> Dict:
        """The merged cluster state in canonical (sorted) form."""
        tables = []
        for name in self.catalog.names():
            schema = self.catalog.get(name).schema
            rows: List[List] = []
            for shard in self.shards:
                partition = shard.primary.db.catalog.resolve(name)
                if partition is not None:
                    rows.extend(list(row) for row in partition.rows)
            tables.append(
                {
                    "name": schema.name,
                    "columns": [
                        [c.name, c.sql_type.value] for c in schema.columns
                    ],
                    "rows": rows,
                }
            )
        return canonicalize({"tables": tables})

    def close(self) -> None:
        self.coordinator_log.close()
        for shard in self.shards:
            shard.close()
