"""An append-only write-ahead log with per-record CRC32 framing.

One record per line::

    <length:08d> <crc32:08x> <payload-json>\\n

``length`` is the byte length of the JSON payload and ``crc32`` its
checksum, so the reader can tell exactly where a crash cut the log.
Every payload carries a monotonically increasing ``lsn`` assigned at
append time; LSNs survive snapshot truncation, which is how replay
skips records already folded into a snapshot.

Tail classification on read:

* the file ends before a record's header, payload, or newline is
  complete → a **torn tail**: the record was never fully written, the
  operation it logged was never acknowledged, and the tail is safe to
  drop (callers truncate the file back to the last whole record);
* a record region is fully present but its CRC, framing, or JSON does
  not check out → **corruption**: bytes of an acknowledged record were
  altered after the fact, reported as
  :class:`~repro.errors.WALCorruptionError` rather than repaired.

Appends go through an unbuffered handle so the on-disk state always
matches what the code has written — a simulated process crash
(:class:`~repro.durability.crash.CrashInjector`) never has hidden
user-space buffers to lose.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.durability.crash import CrashInjector, reach
from repro.durability.io import fsync_handle
from repro.errors import DurabilityError

#: bytes of ``<length:08d> <crc32:08x> `` before each payload
HEADER_LEN = 18


def encode_record(payload: Dict) -> bytes:
    """Frame one record: length prefix, CRC32, compact JSON, newline."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    )
    if len(body) > 99_999_999:
        raise DurabilityError("WAL record exceeds the 8-digit length prefix")
    return b"%08d %08x " % (len(body), zlib.crc32(body)) + body + b"\n"


@dataclass
class WALReadResult:
    """Everything a scan of the log learned."""

    records: List[Dict] = field(default_factory=list)
    #: bytes of the valid prefix (offset the file may be truncated to)
    valid_bytes: int = 0
    #: bytes dropped as a torn tail (0 when the log ended cleanly)
    torn_bytes: int = 0
    #: non-None when fully written bytes were found corrupted
    error: Optional[str] = None

    @property
    def last_lsn(self) -> int:
        return max((r.get("lsn", 0) for r in self.records), default=0)


def scan_wal_bytes(data: bytes) -> WALReadResult:
    """Parse framed records from raw bytes, classifying any bad tail."""
    result = WALReadResult()
    offset, total = 0, len(data)
    while offset < total:
        remaining = total - offset
        if remaining < HEADER_LEN:
            result.torn_bytes = remaining
            break
        header = data[offset : offset + HEADER_LEN]
        try:
            if header[8:9] != b" " or header[17:18] != b" ":
                raise ValueError("bad separators")
            length = int(header[:8])
            crc = int(header[9:17], 16)
        except ValueError:
            result.error = (
                f"unparsable record header at byte {offset}: {header!r}"
            )
            break
        end = offset + HEADER_LEN + length + 1
        if end > total:
            # The payload (or its newline) never made it to disk.
            result.torn_bytes = remaining
            break
        body = data[offset + HEADER_LEN : end - 1]
        if data[end - 1 : end] != b"\n":
            result.error = f"missing record terminator at byte {end - 1}"
            break
        if zlib.crc32(body) != crc:
            result.error = (
                f"CRC mismatch for record at byte {offset} "
                f"(stored {crc:08x}, computed {zlib.crc32(body):08x})"
            )
            break
        try:
            payload = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            result.error = (
                f"record at byte {offset} passed CRC but is not JSON: {exc}"
            )
            break
        result.records.append(payload)
        offset = end
    result.valid_bytes = offset
    return result


def read_wal(path: Union[str, Path]) -> WALReadResult:
    """Scan a log file; a missing file reads as an empty log."""
    path = Path(path)
    if not path.exists():
        return WALReadResult()
    return scan_wal_bytes(path.read_bytes())


class WriteAheadLog:
    """Appender over one log file, with crash points and fsync control.

    ``sync=False`` appends hand bytes to the OS without fsyncing — the
    caller groups them under one explicit :meth:`sync` (the commit
    point), which is the only durability barrier a transaction pays.
    """

    def __init__(
        self,
        path: Union[str, Path],
        crash: Optional[CrashInjector] = None,
        durable: bool = True,
        next_lsn: int = 1,
    ) -> None:
        self.path = Path(path)
        self.crash = crash
        self.durable = durable
        self.last_lsn = next_lsn - 1
        #: appended / fsynced operation counts (for overhead reporting)
        self.appends = 0
        self.syncs = 0
        self._handle = open(self.path, "ab", buffering=0)

    def append(self, record: Dict, sync: bool = True) -> int:
        """Frame and append one record; returns its assigned LSN."""
        self._check_open()
        lsn = self.last_lsn + 1
        line = encode_record({"lsn": lsn, **record})
        reach(self.crash, "wal-before-append")
        half = len(line) // 2
        self._handle.write(line[:half])
        # A crash here leaves half a record — the torn tail recovery
        # must classify as "never acknowledged" and drop.
        reach(self.crash, "wal-torn-append")
        self._handle.write(line[half:])
        reach(self.crash, "wal-after-append")
        self.last_lsn = lsn
        self.appends += 1
        if sync:
            self.sync()
        return lsn

    def append_raw(self, framed: bytes, last_lsn: int, sync: bool = True) -> None:
        """Append already-framed bytes (log shipping's receive path).

        The replica side of replication persists shipped frames exactly
        as the primary encoded them, so both logs stay byte-identical
        and re-scanning either classifies tails the same way. The
        caller passes the highest LSN contained in ``framed`` (it has
        already parsed the frames to validate them).
        """
        self._check_open()
        reach(self.crash, "wal-before-append")
        half = len(framed) // 2
        self._handle.write(framed[:half])
        reach(self.crash, "wal-torn-append")
        self._handle.write(framed[half:])
        reach(self.crash, "wal-after-append")
        self.last_lsn = max(self.last_lsn, int(last_lsn))
        self.appends += 1
        if sync:
            self.sync()

    def sync(self) -> None:
        """The durability barrier: fsync everything appended so far."""
        self._check_open()
        reach(self.crash, "wal-before-fsync")
        if self.durable:
            fsync_handle(self._handle)
        self.syncs += 1
        reach(self.crash, "wal-after-fsync")

    def size(self) -> int:
        """Current log length in bytes."""
        return self.path.stat().st_size if self.path.exists() else 0

    def truncate_to(self, n_bytes: int) -> None:
        """Cut the log back to ``n_bytes`` (torn-tail repair)."""
        self._check_open()
        self._handle.close()
        os.truncate(self.path, n_bytes)
        self._handle = open(self.path, "ab", buffering=0)

    def reset(self) -> None:
        """Empty the log (after its contents were snapshotted); LSNs go on."""
        self.truncate_to(0)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def _check_open(self) -> None:
        if self._handle is None:
            raise DurabilityError(f"write-ahead log {self.path} is closed")

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
