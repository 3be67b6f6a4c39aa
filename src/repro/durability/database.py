"""``DurableDatabase``: a crash-safe wrapper around the SQL engine.

The in-memory :class:`~repro.sql.Database` executes; this wrapper makes
its state survive process crashes with the classic recipe:

* every DDL/DML statement is appended to a write-ahead log *before* it
  is applied, tagged with a transaction id;
* a transaction becomes durable exactly when its ``commit`` record is
  fsynced — autocommitted statements pay one fsync, an explicit
  ``begin()``/``commit()`` block pays one fsync for the whole group;
* :meth:`open` replays the log over the latest snapshot, applying only
  committed transactions, repairing torn tails, and refusing real
  corruption with a typed error;
* :meth:`compact` folds the current state into an atomically written,
  SHA-256-checksummed snapshot and empties the log; record LSNs make
  replay idempotent if the process dies between the two steps.

Semantics under failure follow PostgreSQL's lead: a statement that
errors inside an explicit transaction aborts the whole transaction
(the in-memory state is rebuilt from the durable one), so memory never
drifts from what a crash-reopen would reconstruct.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.durability.crash import CrashInjector, reach
from repro.durability.io import atomic_write_bytes
from repro.durability.wal import WriteAheadLog, read_wal
from repro.errors import (
    DurabilityError,
    SnapshotCorruptionError,
    SQLError,
    WALCorruptionError,
)
from repro.sql.ast import (
    CreateIndex,
    CreateTable,
    DeleteFrom,
    DropTable,
    InsertInto,
    UpdateTable,
)
from repro.sql.engine import Database, QueryResult
from repro.sql.parser import parse_sql
from repro.sql.schema import TableSchema
from repro.sql.table import Table
from repro.sql.types import SQLType

#: statement kinds that mutate state and therefore must be logged
MUTATING_STATEMENTS = (
    CreateTable,
    InsertInto,
    UpdateTable,
    DeleteFrom,
    DropTable,
    CreateIndex,
)

SNAPSHOT_FORMAT = 1


def write_snapshot(
    path: Union[str, Path],
    body_dict: Dict,
    last_lsn: int,
    crash: Optional[CrashInjector] = None,
    label: str = "snapshot",
    durable: bool = True,
) -> int:
    """Atomically write a checksummed snapshot file; returns body bytes.

    The on-disk format is one JSON header line (format version, the
    last LSN the snapshot covers, SHA-256 of the body) followed by the
    compact-JSON body. Shared by :meth:`DurableDatabase.compact` and
    the cluster's replica reseed path, so every snapshot in the tree
    is readable by :meth:`DurableDatabase.open`.
    """
    body = json.dumps(
        body_dict, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    header = json.dumps(
        {
            "format": SNAPSHOT_FORMAT,
            "last_lsn": int(last_lsn),
            "sha256": hashlib.sha256(body).hexdigest(),
        },
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    atomic_write_bytes(
        path,
        header + b"\n" + body,
        crash=crash,
        label=label,
        durable=durable,
    )
    return len(body)


def read_snapshot(path: Union[str, Path]):
    """Read and integrity-check a snapshot file.

    Returns ``(body_dict, last_lsn)``, or ``(None, 0)`` when the file
    does not exist. Raises :class:`SnapshotCorruptionError` on any
    header, checksum, or decoding failure.
    """
    path = Path(path)
    if not path.exists():
        return None, 0
    raw = path.read_bytes()
    try:
        header_line, body = raw.split(b"\n", 1)
        header = json.loads(header_line.decode("utf-8"))
        stored = header["sha256"]
        last_lsn = int(header["last_lsn"])
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        raise SnapshotCorruptionError(
            f"snapshot {path} has a bad header: {exc}"
        ) from exc
    digest = hashlib.sha256(body).hexdigest()
    if digest != stored:
        raise SnapshotCorruptionError(
            f"snapshot {path} failed its checksum "
            f"(stored {stored[:12]}..., computed {digest[:12]}...)"
        )
    try:
        data = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SnapshotCorruptionError(
            f"snapshot {path} body does not restore: {exc}"
        ) from exc
    return data, last_lsn


# -- state serialization ---------------------------------------------------
def dump_table(table: Table) -> Dict:
    """One table as a JSON-safe dict (schema, rows, index columns)."""
    return {
        "name": table.schema.name,
        "columns": [[c.name, c.sql_type.value] for c in table.schema.columns],
        "rows": [list(row) for row in table.rows],
        "indexes": table.index_names(),
    }


def restore_table(data: Dict) -> Table:
    """Rebuild a table from :func:`dump_table` output."""
    schema = TableSchema.build(
        data["name"],
        [(name, SQLType(type_name)) for name, type_name in data["columns"]],
    )
    table = Table(schema, rows=data["rows"])
    for column in data.get("indexes", ()):
        table.create_index(column)
    return table


def dump_database(db: Database) -> Dict:
    """The full catalog as a JSON-safe dict (the snapshot body)."""
    return {
        "tables": [dump_table(db.table(name)) for name in db.table_names()]
    }


def restore_database(data: Dict, db: Database) -> Database:
    """Load :func:`dump_database` output into a database."""
    for table_data in data["tables"]:
        db.add_table(restore_table(table_data))
    return db


@dataclass
class RecoveryStats:
    """What one :meth:`DurableDatabase.open` had to do."""

    snapshot_loaded: bool = False
    wal_records: int = 0
    replayed_transactions: int = 0
    replayed_statements: int = 0
    #: torn-tail bytes dropped during repair (0 for a clean log)
    repaired_bytes: int = 0


class DurableDatabase:
    """A :class:`~repro.sql.Database` whose state survives crashes.

    Example::

        db = DurableDatabase.open(directory)
        db.execute("CREATE TABLE t (id INT)")    # autocommitted
        db.begin()
        db.execute("INSERT INTO t VALUES (1)")
        db.commit()                              # one fsync for the txn
        db = DurableDatabase.open(directory)     # replays to same state
    """

    SNAPSHOT_NAME = "snapshot.json"
    WAL_NAME = "wal.log"

    def __init__(
        self,
        directory: Union[str, Path],
        crash: Optional[CrashInjector] = None,
        durable: bool = True,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.crash = crash
        self.durable = durable
        self._txn: Optional[int] = None
        self._txn_tags: List[str] = []
        self._next_txn = 1
        self._closed = False
        self.last_recovery = RecoveryStats()
        #: tags of statements whose commit is durable (exactly-once
        #: re-apply: a tagged statement is skipped if its tag is here)
        self.applied_tags: set = set()
        self.db = self._recover()

    @classmethod
    def open(cls, directory: Union[str, Path], **kwargs) -> "DurableDatabase":
        """Open (creating or recovering) a durable database directory."""
        return cls(directory, **kwargs)

    # -- recovery ----------------------------------------------------------
    @property
    def snapshot_path(self) -> Path:
        return self.directory / self.SNAPSHOT_NAME

    @property
    def wal_path(self) -> Path:
        return self.directory / self.WAL_NAME

    def _recover(self) -> Database:
        stats = RecoveryStats()
        db, snapshot_lsn = self._load_snapshot(stats, self.applied_tags)
        scan = read_wal(self.wal_path)
        if scan.error is not None:
            raise WALCorruptionError(
                f"write-ahead log {self.wal_path} is corrupt: {scan.error}"
            )
        stats.wal_records = len(scan.records)
        stats.repaired_bytes = scan.torn_bytes
        max_txn = self._replay(
            db, scan.records, snapshot_lsn, stats, self.applied_tags
        )
        self._next_txn = max_txn + 1
        self.wal = WriteAheadLog(
            self.wal_path,
            crash=self.crash,
            durable=self.durable,
            next_lsn=max(snapshot_lsn, scan.last_lsn) + 1,
        )
        if scan.torn_bytes:
            self.wal.truncate_to(scan.valid_bytes)
        # A crash can strand a half-written snapshot temp file; the
        # rename-last protocol means it is garbage — drop it.
        tmp = self.snapshot_path.with_name(self.snapshot_path.name + ".tmp")
        if tmp.exists():
            tmp.unlink()
        self.last_recovery = stats
        return db

    def _load_snapshot(self, stats: RecoveryStats, tags: Optional[set] = None):
        db = Database()
        data, last_lsn = read_snapshot(self.snapshot_path)
        if data is None:
            return db, 0
        try:
            restore_database(data, db)
        except (ValueError, KeyError, TypeError, SQLError) as exc:
            raise SnapshotCorruptionError(
                f"snapshot {self.snapshot_path} body does not restore: {exc}"
            ) from exc
        if tags is not None:
            tags.update(data.get("tags", ()))
        stats.snapshot_loaded = True
        return db, last_lsn

    def _replay(
        self,
        db: Database,
        records: List[Dict],
        snapshot_lsn: int,
        stats: RecoveryStats,
        tags: Optional[set] = None,
    ) -> int:
        """Apply committed transactions; return the highest txn id seen."""
        pending: Dict[int, List[Dict]] = {}
        max_txn = 0
        for record in records:
            txn = int(record.get("txn", 0))
            max_txn = max(max_txn, txn)
            if record.get("lsn", 0) <= snapshot_lsn:
                continue  # already folded into the snapshot
            kind = record.get("t")
            if kind == "begin":
                pending.setdefault(txn, [])
            elif kind in ("stmt", "table"):
                pending.setdefault(txn, []).append(record)
            elif kind == "abort":
                pending.pop(txn, None)
            elif kind == "commit":
                for statement in pending.pop(txn, []):
                    self._apply_record(db, statement)
                    if tags is not None and statement.get("tag"):
                        tags.add(statement["tag"])
                    stats.replayed_statements += 1
                stats.replayed_transactions += 1
            else:
                raise WALCorruptionError(
                    f"unknown WAL record type {kind!r} (lsn {record.get('lsn')})"
                )
        # Uncommitted leftovers in `pending` are transactions the crash
        # cut off before commit: invisible by design.
        return max_txn

    @staticmethod
    def _apply_record(db: Database, record: Dict) -> None:
        try:
            if record["t"] == "stmt":
                db.execute(record["sql"])
            else:
                db.add_table(
                    restore_table(record["data"]),
                    replace=record.get("replace", False),
                )
        except SQLError as exc:
            raise DurabilityError(
                f"replay of committed WAL record lsn {record.get('lsn')} "
                f"failed: {exc}"
            ) from exc

    # -- logged mutations --------------------------------------------------
    def execute(self, sql: str, tag: Optional[str] = None) -> QueryResult:
        """Run one SQL statement; mutations are WAL-logged before apply.

        ``tag`` marks the statement for exactly-once re-application: once
        its commit is durable, :meth:`has_applied` returns True for the
        tag (surviving restarts and compaction), so a coordinator that
        lost the acknowledgement can safely retry without double-applying.
        """
        self._check_open()
        statement = parse_sql(sql)
        if not isinstance(statement, MUTATING_STATEMENTS):
            return self.db.execute(sql)
        record = {"t": "stmt", "sql": sql}
        if tag is not None:
            record["tag"] = tag
        return self._logged(record, lambda: self.db.execute(sql), tag)

    def has_applied(self, tag: str) -> bool:
        """True if a statement carrying ``tag`` is durably committed."""
        return tag in self.applied_tags

    def put_table(
        self, table: Table, replace: bool = False, tag: Optional[str] = None
    ) -> None:
        """Durably register an externally built table (logged whole)."""
        self._check_open()
        record = {"t": "table", "data": dump_table(table), "replace": replace}
        if tag is not None:
            record["tag"] = tag
        self._logged(
            record, lambda: self.db.add_table(table, replace=replace), tag
        )

    def load_csv(self, name: str, path: Union[str, Path]) -> Table:
        """Load a CSV as a durable table (the rows go through the WAL)."""
        table = Table.from_csv(name, path)
        self.put_table(table)
        return table

    def _logged(self, record: Dict, apply, tag: Optional[str] = None):
        if self._txn is not None:
            record["txn"] = self._txn
            self.wal.append(record, sync=False)
            try:
                result = apply()
            except SQLError:
                # PostgreSQL-style: an error aborts the enclosing
                # transaction, so memory matches the durable state.
                self._abort(self._txn)
                raise
            if tag is not None:
                self._txn_tags.append(tag)
            return result
        txn = self._next_txn
        self._next_txn += 1
        record["txn"] = txn
        self.wal.append(record, sync=False)
        try:
            result = apply()
        except SQLError:
            # No commit record: the statement is invisible to replay.
            # Rebuild to shed any partial in-memory effects.
            self.db = self._reload_committed()
            raise
        self.wal.append({"t": "commit", "txn": txn}, sync=True)
        if tag is not None:
            self.applied_tags.add(tag)
        return result

    # -- transactions ------------------------------------------------------
    def begin(self) -> int:
        """Start an explicit transaction; returns its id."""
        self._check_open()
        if self._txn is not None:
            raise DurabilityError(
                f"transaction {self._txn} is already active (no nesting)"
            )
        self._txn = self._next_txn
        self._next_txn += 1
        self._txn_tags = []
        self.wal.append({"t": "begin", "txn": self._txn}, sync=False)
        return self._txn

    def commit(self) -> None:
        """Make the active transaction durable (the one fsync it pays)."""
        self._check_open()
        if self._txn is None:
            raise DurabilityError("no active transaction to commit")
        txn, self._txn = self._txn, None
        self.wal.append({"t": "commit", "txn": txn}, sync=True)
        self.applied_tags.update(self._txn_tags)
        self._txn_tags = []

    def rollback(self) -> None:
        """Discard the active transaction, in memory and in the log."""
        self._check_open()
        if self._txn is None:
            raise DurabilityError("no active transaction to roll back")
        self._abort(self._txn)

    def _abort(self, txn: int) -> None:
        self._txn = None
        self._txn_tags = []
        self.wal.append({"t": "abort", "txn": txn}, sync=False)
        self.db = self._reload_committed()

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None

    def _reload_committed(self) -> Database:
        """Rebuild the in-memory engine from the durable state only."""
        stats = RecoveryStats()
        tags: set = set()
        db, snapshot_lsn = self._load_snapshot(stats, tags)
        scan = read_wal(self.wal_path)
        if scan.error is not None:
            raise WALCorruptionError(
                f"write-ahead log {self.wal_path} is corrupt: {scan.error}"
            )
        self._replay(db, scan.records, snapshot_lsn, stats, tags)
        self.applied_tags = tags
        return db

    # -- compaction --------------------------------------------------------
    def compact(self) -> int:
        """Snapshot the current state atomically, then empty the WAL.

        Returns the number of bytes the snapshot body occupies. Safe
        against a crash between the two steps: the snapshot records the
        last LSN it covers, and replay skips records at or below it.
        """
        self._check_open()
        if self._txn is not None:
            raise DurabilityError("cannot compact inside a transaction")
        body_dict = dump_database(self.db)
        if self.applied_tags:
            body_dict["tags"] = sorted(self.applied_tags)
        size = write_snapshot(
            self.snapshot_path,
            body_dict,
            self.wal.last_lsn,
            crash=self.crash,
            label="snapshot",
            durable=self.durable,
        )
        reach(self.crash, "before-wal-truncate")
        self.wal.reset()
        return size

    # -- passthrough reads -------------------------------------------------
    def table(self, name: str) -> Table:
        return self.db.table(name)

    def table_names(self) -> List[str]:
        return self.db.table_names()

    def state(self) -> Dict:
        """The current catalog as a comparable JSON-safe dict."""
        return dump_database(self.db)

    def explain_stats(self):
        return self.db.explain_stats()

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        self._closed = True
        self.wal.close()

    def _check_open(self) -> None:
        if self._closed:
            raise DurabilityError(f"database {self.directory} is closed")

    def __enter__(self) -> "DurableDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
