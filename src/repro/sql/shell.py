"""A minimal interactive SQL shell over the in-memory engine.

Run with ``python -m repro.sql.shell [csv files...]`` — each CSV loads
as a table named after the file. ``--durable DIR`` backs the session
with a :class:`~repro.durability.DurableDatabase` in ``DIR`` (WAL +
snapshot), so statements survive a crash and a restarted shell resumes
where the last one stopped. All persistence — the durable directory
and ``.export`` CSVs alike — goes through the atomic write helpers of
:mod:`repro.durability.io`; the shell never leaves a torn file behind.
Useful for poking at the engine and for demos; the same REPL loop is
importable for tests.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List, Optional, TextIO

from repro.errors import ReproError
from repro.sql import Database, QueryResult

PROMPT = "sql> "
COMMANDS = """\
.tables              list tables
.schema <table>      show a table's columns
.export <table> <f>  write a table to a CSV file (atomic replace)
.quit                exit
any other input is executed as SQL (one statement per line)"""


def format_result(result: QueryResult) -> str:
    """Render a query result as an aligned text table."""
    if not result.columns:
        return f"ok ({result.rowcount} rows affected)"
    widths = [len(c) for c in result.columns]
    rendered_rows: List[List[str]] = []
    for row in result.rows:
        rendered = ["NULL" if v is None else str(v) for v in row]
        widths = [max(w, len(cell)) for w, cell in zip(widths, rendered)]
        rendered_rows.append(rendered)
    header = "  ".join(c.ljust(w) for c, w in zip(result.columns, widths))
    separator = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
        for row in rendered_rows
    ]
    footer = f"({len(result.rows)} row{'s' if len(result.rows) != 1 else ''})"
    return "\n".join([header, separator, *body, footer])


def handle_line(db: Database, line: str) -> Optional[str]:
    """Process one input line; returns the text to print (None to quit)."""
    stripped = line.strip()
    if not stripped:
        return ""
    if stripped in (".quit", ".exit"):
        return None
    if stripped == ".help":
        return COMMANDS
    if stripped == ".tables":
        names = db.table_names()
        return "\n".join(names) if names else "(no tables)"
    if stripped.startswith(".schema"):
        parts = stripped.split()
        if len(parts) != 2:
            return "usage: .schema <table>"
        try:
            schema = db.table(parts[1]).schema
        except ReproError as exc:
            return f"error: {exc}"
        return "\n".join(f"{c.name}  {c.sql_type.value}" for c in schema.columns)
    if stripped.startswith(".export"):
        parts = stripped.split()
        if len(parts) != 3:
            return "usage: .export <table> <path>"
        try:
            written = db.table(parts[1]).to_csv(parts[2])
        except ReproError as exc:
            return f"error: {exc}"
        return f"exported {parts[1]} to {written}"
    try:
        return format_result(db.execute(stripped))
    except ReproError as exc:
        return f"error: {exc}"


def repl(
    db: Database,
    stdin: Optional[TextIO] = None,
    stdout: Optional[TextIO] = None,
) -> None:
    """Run the read-eval-print loop until EOF or ``.quit``."""
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    interactive = stdin is sys.stdin and stdin.isatty()
    while True:
        if interactive:
            stdout.write(PROMPT)
            stdout.flush()
        line = stdin.readline()
        if not line:
            break
        output = handle_line(db, line)
        if output is None:
            break
        if output:
            stdout.write(output + "\n")


def build_database(argv: List[str]):
    """Parse shell arguments into a (database, remaining-args) pair.

    ``--durable DIR`` opens (or resumes) a crash-safe
    :class:`~repro.durability.DurableDatabase` in ``DIR``; everything
    else is a CSV path to load as a table.
    """
    durable_dir: Optional[str] = None
    csv_paths: List[str] = []
    position = 0
    while position < len(argv):
        arg = argv[position]
        if arg == "--durable":
            if position + 1 >= len(argv):
                raise SystemExit("--durable needs a directory argument")
            durable_dir = argv[position + 1]
            position += 2
        else:
            csv_paths.append(arg)
            position += 1
    if durable_dir is not None:
        # Deferred import: repro.durability depends on repro.sql, so a
        # module-level import here would be circular.
        from repro.durability.database import DurableDatabase

        return DurableDatabase(durable_dir), csv_paths
    return Database(), csv_paths


def main(argv: Optional[List[str]] = None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    db, csv_paths = build_database(argv)
    for csv_path in csv_paths:
        path = Path(csv_path)
        db.load_csv(path.stem, path)
        print(f"loaded table {path.stem!r} from {path}")
    print("repro SQL shell — .help for commands")
    repl(db)
    if hasattr(db, "close"):
        db.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
