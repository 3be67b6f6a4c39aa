"""Crash-safe filesystem primitives: atomic write-temp-fsync-rename.

Every durable artifact in this repository (WAL snapshots, model
checkpoints, tokenizer files, CSV exports) goes through
:func:`atomic_write_bytes`: the payload is written to a sibling
temporary file, flushed and fsynced, then atomically renamed over the
destination, and the parent directory is fsynced so the rename itself
is durable. A crash at *any* point leaves the destination either
untouched or fully written — never half a file. (A stale ``*.tmp``
sibling may survive a crash; it is overwritten by the next write and
ignored by every reader.)

All helpers accept an optional :class:`~repro.durability.crash.CrashInjector`
and announce named crash points around each syscall that matters. For a
write labelled ``L`` the points are, in order::

    L-before-write      nothing on disk yet
    L-torn-write        the temp file holds only half the payload
    L-before-fsync      temp complete but possibly unflushed
    mid-L-rename        temp durable, destination still the old version
    L-after-rename      destination replaced, rename not yet fsynced

The repo linter's ``atomic-write`` rule forbids plain write-mode
``open()`` calls outside this package, so these helpers are the single
place file writes can tear.

A ``durable=False`` write skips both fsyncs (the file and its
directory) but keeps the temp-then-rename protocol and its crash
points.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

from repro.durability.crash import CrashInjector, reach


def fsync_handle(handle) -> None:
    """Flush and fsync one open file handle."""
    handle.flush()
    os.fsync(handle.fileno())


def fsync_directory(path: Union[str, Path]) -> None:
    """fsync a directory so renames/creations inside it are durable."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: Union[str, Path],
    data: bytes,
    crash: Optional[CrashInjector] = None,
    label: str = "file",
    durable: bool = True,
) -> Path:
    """Atomically replace ``path`` with ``data`` (temp + fsync + rename)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    reach(crash, f"{label}-before-write")
    with open(tmp, "wb") as handle:
        # Write in two halves with a crash point between them: a crash
        # there leaves a visibly torn temp file, which the rename-last
        # protocol must (and does) keep away from the destination.
        half = len(data) // 2
        handle.write(data[:half])
        handle.flush()
        reach(crash, f"{label}-torn-write")
        handle.write(data[half:])
        reach(crash, f"{label}-before-fsync")
        if durable:
            fsync_handle(handle)
    reach(crash, f"mid-{label}-rename")
    os.replace(tmp, path)
    reach(crash, f"{label}-after-rename")
    if durable:
        fsync_directory(path.parent)
    return path


def atomic_write_text(
    path: Union[str, Path],
    text: str,
    crash: Optional[CrashInjector] = None,
    label: str = "file",
    durable: bool = True,
) -> Path:
    """Atomically replace ``path`` with UTF-8 encoded ``text``."""
    return atomic_write_bytes(
        path, text.encode("utf-8"), crash=crash, label=label, durable=durable
    )
