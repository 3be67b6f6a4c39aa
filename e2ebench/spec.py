"""``BENCHMARK.json``: loading it and checking it against its rules.

The file at the repository root declares the benchmark: the command,
the directories that hold it, the run length, the workloads, the
end-to-end metrics with the bound by which each may worsen, and the
per-layer metrics. :func:`problems` lists every way a spec breaks the
format rules; an empty list means it is well formed.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")
MAX_BOUND = 0.25
MAX_BYTES = 64 * 1024


def load(path: Path = SPEC_PATH) -> Dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _entries(spec: Dict, key: str, fields: set, low: int, high: int) -> List[str]:
    entries = spec.get(key)
    if not isinstance(entries, list) or not low <= len(entries) <= high:
        return [f"{key}: needs {low} to {high} entries"]
    found = []
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != fields:
            found.append(f"{key}: {entry!r} must have exactly {sorted(fields)}")
    return found


def problems(spec: Dict, raw_bytes: int = 0) -> List[str]:
    """Every rule ``spec`` breaks; ``raw_bytes`` is the file's size."""
    found: List[str] = []
    if set(spec) != KEYS:
        return [f"top-level keys must be exactly {sorted(KEYS)}"]
    if raw_bytes > MAX_BYTES:
        found.append("the file is larger than 64 KiB")

    command = spec["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32) or not all(
        isinstance(part, str) and len(part) <= 200 for part in command
    ):
        found.append("command: 1 to 32 strings of at most 200 characters")
    elif any(part.startswith("/") or ".." in part.split("/") for part in command):
        found.append("command: no absolute paths and no '..'")

    paths = spec["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        found.append("paths: 1 to 16 directories")
    else:
        found += [
            f"paths: {path!r} is not a plain relative path"
            for path in paths
            if not (isinstance(path, str) and PATH.match(path))
            or path.startswith("/")
            or ".." in path.split("/")
        ]

    seconds = spec["run_seconds"]
    if not (isinstance(seconds, int) and 1 <= seconds <= 60):
        found.append("run_seconds: a whole number from 1 to 60")

    found += _entries(spec, "workloads", {"name", "why"}, 2, 8)
    found += _entries(spec, "end_to_end", {"name", "unit", "better", "bound"}, 1, 16)
    found += _entries(spec, "per_layer", {"name", "unit", "better"}, 1, 128)
    if found:
        return found

    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in spec[key]
    ]
    found += [f"name {name!r} breaks the name rule" for name in names if not NAME.match(name)]
    found += [f"name {name!r} is used twice" for name in set(names) if names.count(name) > 1]
    for entry in spec["workloads"]:
        why = entry["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or "\n" in why:
            found.append(f"workload {entry['name']!r}: why must be one line of <= 200 chars")
    for entry in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(entry["unit"]):
            found.append(f"metric {entry['name']!r}: unit {entry['unit']!r} breaks the unit rule")
        if entry["better"] not in ("lower", "higher"):
            found.append(f"metric {entry['name']!r}: better must be lower or higher")
    for entry in spec["end_to_end"]:
        bound = entry["bound"]
        if not isinstance(bound, (int, float)) or not 0 <= bound <= MAX_BOUND:
            found.append(f"metric {entry['name']!r}: bound must be in [0, {MAX_BOUND}]")
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        found.append("end_to_end needs setup_s in s, lower is better")
    elif setup[0]["bound"] < max(e["bound"] for e in spec["end_to_end"]):
        found.append("setup_s must have the largest bound")
    return found
