"""Primary→replica WAL shipping with acks and receive-side vetting.

One :class:`ShardReplicator` connects a primary
:class:`~repro.durability.DurableDatabase` to a :class:`ShardReplica`.
Shipping is *synchronous and batched*: after the primary fsyncs a
commit, every WAL frame not yet shipped goes to the replica in one
chunk, the replica persists the frames to its own WAL and fsyncs, and
only then is the statement acknowledged to the caller. Acknowledged
therefore always implies *replicated* — the invariant failover leans
on when it promotes the replica after a primary death.

The receive path trusts nothing. Each chunk is re-scanned with the
same CRC framing reader the primary uses
(:func:`repro.durability.wal.scan_wal_bytes`) and classified:

* **torn tail** — the chunk ends mid-frame (the network analogue of a
  torn write). The partial bytes are buffered until the rest arrives;
  nothing is applied.
* **corruption** — a fully framed record fails its CRC or decoding.
  The frame is *never* applied; the buffer is dropped so the primary
  can re-ship from the replica's acknowledged LSN.
* **duplicate** — a frame at or below the replica's LSN watermark is
  skipped (LSN-idempotent receive: re-shipping after a lost ack can
  never double-apply).
* **reorder** — a frame that skips past ``watermark + 1`` is rejected;
  the shipping protocol is strictly ordered.

The replica's directory is kept in :class:`DurableDatabase` on-disk
format (``wal.log`` + ``snapshot.json``), so promotion is nothing more
than ``DurableDatabase.open(replica_dir)``.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.durability.crash import CrashInjector, reach
from repro.durability.database import (
    DurableDatabase,
    read_snapshot,
    restore_database,
)
from repro.durability.wal import WriteAheadLog, encode_record, scan_wal_bytes
from repro.errors import ReplicationError, WALCorruptionError
from repro.sql.engine import Database

#: receive statuses, from benign to fatal
RECEIVE_OK = "ok"
RECEIVE_TORN = "torn-tail"
RECEIVE_REORDER = "reorder"
RECEIVE_CORRUPT = "corruption"


@dataclass
class ReceiveResult:
    """What one shipped chunk did to the replica."""

    status: str = RECEIVE_OK
    applied: int = 0
    duplicates: int = 0
    #: replica's durable LSN watermark after processing (the ack)
    acked_lsn: int = 0
    error: str = ""


@dataclass
class ReplicationStats:
    """Lifetime counters of one primary→replica link."""

    ships: int = 0
    shipped_bytes: int = 0
    shipped_records: int = 0
    duplicates_skipped: int = 0
    torn_chunks: int = 0
    corrupt_rejected: int = 0
    reorder_rejected: int = 0
    #: records the replica trailed the primary by, sampled at ship time
    lag_records: int = 0
    max_lag_records: int = 0
    reseeds: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "ships": self.ships,
            "shipped_bytes": self.shipped_bytes,
            "shipped_records": self.shipped_records,
            "duplicates_skipped": self.duplicates_skipped,
            "torn_chunks": self.torn_chunks,
            "corrupt_rejected": self.corrupt_rejected,
            "reorder_rejected": self.reorder_rejected,
            "max_lag_records": self.max_lag_records,
            "reseeds": self.reseeds,
        }


class ShardReplica:
    """The receiving end: a warm standby built from shipped WAL frames.

    Maintains an in-memory :class:`~repro.sql.Database` of *committed*
    shipped transactions (serving stale-labeled reads during failover)
    plus the pending statements of transactions whose commit frame has
    not arrived yet. On disk it is a regular durable-database directory.
    """

    SNAPSHOT_NAME = DurableDatabase.SNAPSHOT_NAME
    WAL_NAME = DurableDatabase.WAL_NAME

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
        self.db = Database()
        #: txn id -> statement records shipped but not yet committed
        self.pending: Dict[int, List[Dict]] = {}
        self.applied_tags: set = set()
        #: highest LSN durably persisted (the ack the primary waits on)
        self.watermark = 0
        self._tail = b""
        self._load()

    @property
    def snapshot_path(self) -> Path:
        return self.directory / self.SNAPSHOT_NAME

    @property
    def wal_path(self) -> Path:
        return self.directory / self.WAL_NAME

    def _load(self) -> None:
        snapshot_lsn = 0
        data, snapshot_lsn = read_snapshot(self.snapshot_path)
        if data is not None:
            restore_database(data, self.db)
            self.applied_tags.update(data.get("tags", ()))
        raw = self.wal_path.read_bytes() if self.wal_path.exists() else b""
        scan = scan_wal_bytes(raw)
        if scan.error is not None:
            raise WALCorruptionError(
                f"replica log {self.wal_path} is corrupt: {scan.error}"
            )
        for record in scan.records:
            if record.get("lsn", 0) <= snapshot_lsn:
                continue
            self._track(record)
        self.watermark = max(snapshot_lsn, scan.last_lsn)
        self.wal = WriteAheadLog(
            self.wal_path,
            crash=self.crash,
            durable=self.durable,
            next_lsn=self.watermark + 1,
        )
        if scan.torn_bytes:
            self.wal.truncate_to(scan.valid_bytes)

    def _track(self, record: Dict) -> None:
        """Streaming equivalent of replay: apply at commit, buffer else."""
        kind = record.get("t")
        txn = int(record.get("txn", 0))
        if kind == "begin":
            self.pending.setdefault(txn, [])
        elif kind in ("stmt", "table"):
            self.pending.setdefault(txn, []).append(record)
        elif kind == "abort":
            self.pending.pop(txn, None)
        elif kind == "commit":
            for statement in self.pending.pop(txn, []):
                DurableDatabase._apply_record(self.db, statement)
                if statement.get("tag"):
                    self.applied_tags.add(statement["tag"])
        else:
            raise ReplicationError(
                f"unknown shipped record type {kind!r} "
                f"(lsn {record.get('lsn')})"
            )

    def receive(self, chunk: bytes) -> ReceiveResult:
        """Ingest one shipped chunk; classify, persist, apply, ack."""
        data = self._tail + chunk
        scan = scan_wal_bytes(data)
        result = ReceiveResult(acked_lsn=self.watermark)
        appended = False
        for record in scan.records:
            lsn = int(record.get("lsn", 0))
            if lsn <= self.watermark:
                result.duplicates += 1
                continue
            if lsn != self.watermark + 1:
                result.status = RECEIVE_REORDER
                result.error = (
                    f"frame lsn {lsn} arrived with watermark "
                    f"{self.watermark} (strictly ordered shipping)"
                )
                break
            self.wal.append_raw(encode_record(record), lsn, sync=False)
            appended = True
            self._track(record)
            self.watermark = lsn
            result.applied += 1
        if appended:
            # One fsync per shipped batch: the ack's durability barrier.
            self.wal.sync()
        result.acked_lsn = self.watermark
        if result.status == RECEIVE_REORDER:
            self._tail = b""
            return result
        if scan.error is not None:
            result.status = RECEIVE_CORRUPT
            result.error = scan.error
            self._tail = b""
            return result
        self._tail = data[scan.valid_bytes :]
        if self._tail:
            result.status = RECEIVE_TORN
        return result

    def reseed(self, body_dict: Dict, last_lsn: int) -> None:
        """Rebuild this replica from a full snapshot of the primary.

        Used after the primary compacts (its WAL resets, so frame
        shipping can no longer describe the gap) and to re-establish
        redundancy after a failover promoted the old replica.
        """
        from repro.durability.database import write_snapshot

        write_snapshot(
            self.snapshot_path,
            body_dict,
            last_lsn,
            crash=self.crash,
            label="reseed",
            durable=self.durable,
        )
        self.wal.reset()
        self.wal.last_lsn = int(last_lsn)
        self.db = Database()
        restore_database(body_dict, self.db)
        self.applied_tags = set(body_dict.get("tags", ()))
        self.pending = {}
        self.watermark = int(last_lsn)
        self._tail = b""

    def query(self, sql: str):
        """Run a read against the replica's committed state."""
        return self.db.execute(sql)

    def state(self) -> Dict:
        from repro.durability.database import dump_database

        return dump_database(self.db)

    def close(self) -> None:
        self.wal.close()

    def destroy(self) -> None:
        """Delete the replica's directory (it is being rebuilt)."""
        self.wal.close()
        shutil.rmtree(self.directory, ignore_errors=True)


class ShardReplicator:
    """The sending end: ships new primary WAL frames and tracks lag."""

    def __init__(
        self,
        primary: DurableDatabase,
        replica: ShardReplica,
        crash: Optional[CrashInjector] = None,
    ) -> None:
        self.primary = primary
        self.replica = replica
        self.crash = crash
        #: byte offset into the primary WAL already shipped
        self.shipped_bytes = 0
        self.stats = ReplicationStats()

    def lag(self) -> int:
        """Records the replica currently trails the primary by."""
        return max(0, self.primary.wal.last_lsn - self.replica.watermark)

    def _observe_lag(self) -> None:
        self.stats.lag_records = self.lag()
        self.stats.max_lag_records = max(
            self.stats.max_lag_records, self.stats.lag_records
        )

    def ship(self) -> int:
        """Ship every unshipped whole frame; returns frames applied.

        The chunk is delivered in two halves with a crash point between
        them, modelling a send the process died in the middle of — the
        replica must classify the torn half and stay consistent.
        """
        self._observe_lag()
        pending = _read_tail(self.primary.wal_path, self.shipped_bytes)
        scan = scan_wal_bytes(pending)
        chunk = pending[: scan.valid_bytes]
        if not chunk:
            return 0
        reach(self.crash, "ship-before-send")
        half = len(chunk) // 2
        first = self.replica.receive(chunk[:half])
        reach(self.crash, "ship-torn-send")
        second = self.replica.receive(chunk[half:])
        reach(self.crash, "ship-after-send")
        self.shipped_bytes += len(chunk)
        self.stats.ships += 1
        self.stats.shipped_bytes += len(chunk)
        applied = first.applied + second.applied
        self.stats.shipped_records += applied
        self.stats.duplicates_skipped += first.duplicates + second.duplicates
        for result in (first, second):
            if result.status == RECEIVE_TORN:
                self.stats.torn_chunks += 1
            elif result.status == RECEIVE_CORRUPT:
                self.stats.corrupt_rejected += 1
                raise ReplicationError(
                    f"replica rejected shipped frames as corrupt: "
                    f"{result.error}"
                )
            elif result.status == RECEIVE_REORDER:
                self.stats.reorder_rejected += 1
                raise ReplicationError(
                    f"replica rejected shipped frames as reordered: "
                    f"{result.error}"
                )
        self._observe_lag()
        return applied

    def resync(self) -> bool:
        """Recompute the shipped-byte offset from the replica's ack.

        After a reopen the in-memory offset is gone; walk the primary
        WAL until the replica's watermark and continue from there.
        Returns False when the replica is behind the start of the
        primary WAL (the primary compacted past it) — the caller must
        reseed instead of ship.
        """
        raw = (
            self.primary.wal_path.read_bytes()
            if self.primary.wal_path.exists()
            else b""
        )
        scan = scan_wal_bytes(raw)
        offset = 0
        watermark = self.replica.watermark
        first_lsn = (
            int(scan.records[0].get("lsn", 0)) if scan.records else None
        )
        if first_lsn is not None and watermark < first_lsn - 1:
            return False
        for record in scan.records:
            lsn = int(record.get("lsn", 0))
            if lsn > watermark:
                break
            offset += len(encode_record(record))
        self.shipped_bytes = offset
        return True


def _read_tail(path: Path, offset: int) -> bytes:
    """The bytes of ``path`` from ``offset`` on; empty if it is missing."""
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            return handle.read()
    except FileNotFoundError:
        return b""
