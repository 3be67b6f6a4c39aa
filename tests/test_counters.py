"""Counters nothing reads: every ``*Stats`` member must have a reader.

A counter is a field or property of a class under ``src/`` whose name
ends in ``Stats``. It is read when code under ``src/``, ``benchmarks/``,
``examples/`` or ``e2ebench/`` loads an attribute of that name outside
the class's own body, or uses the name as a string key (``d["hits"]``,
``{"hits": ...}``). A load inside the assignment that updates the same
name (``s.peak = max(s.peak, n)``) is not a read. Matching is by name
only, so a read of an unrelated attribute with the same name hides an
unread counter; it never flags a counter that is read.

A counter that nothing reads is deleted; one that only tests read is
listed in ``EXCEPTIONS`` with the reason, and a listed entry that is no
longer flagged fails, so the list can only shrink.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

from repro.analysis.lint import _python_files
from repro.analysis.settings import _parse

ROOT = Path(__file__).resolve().parents[1]
READER_DIRS = ("src", "benchmarks", "examples", "e2ebench")

EXCEPTIONS = {
    "ClusterStats.last_merge_stats": "read by `modeled_parallel_speedup()` in its own class, which e2ebench reads",
    "ClusterStats.reroutes_applied": "tests read it to prove a statement lost with a crashed primary is re-applied on the promoted one",
    "ClusterStats.reroutes_deduped": "tests read it to prove a re-route of an already durable statement is not applied twice",
    "EngineStats.cache_skipped_prompt_tokens": "summed by `cache_skipped_tokens` in its own class, which benchmarks read",
    "GatewayStats.expired_in_queue": "tests read it to prove a deadline spent in the queue is rejected at dispatch",
    "GatewayStats.expired_mid_decode": "tests read it to prove a deadline that runs out mid-decode frees the slot",
    "GatewayStats.queue_wait_max": "tests read it to prove latency decomposes into queue wait plus service",
    "GatewayStats.service_seconds": "tests read it to prove latency decomposes into queue wait plus service",
    "GatewayStats.shed_queue_full": "summed by `shed` in its own class, which e2ebench reads; tests read the parts to tell refusals apart",
    "GatewayStats.shed_quota": "summed by `shed` in its own class, which e2ebench reads; tests read the parts to tell refusals apart",
    "GatewayStats.shed_unavailable": "summed by `shed` in its own class, which e2ebench reads; tests read the parts to tell refusals apart",
    "GeneratorStats.cancelled_sequences": "tests read it to prove a mid-stream cancel retires only its own rows",
    "GeneratorStats.cancelled_tokens": "tests read it to prove a mid-stream cancel stops decoding the cancelled rows",
    "GeneratorStats.prefill_chunks": "tests read it to prove n choices share one prompt prefill",
    "GeneratorStats.prefill_tokens": "tests read it to prove prefix reuse skipped prefill",
    "GeneratorStats.sequential_fallbacks": "tests read it to prove an oversized request falls back to the sequential decoder",
    "RecoveryStats.repaired_bytes": "tests read it to prove a torn WAL tail is repaired on open, and a clean log is not",
    "RecoveryStats.replayed_transactions": "tests read it to prove reopening replays exactly the committed transactions",
    "ReplicationStats.duplicates_skipped": "tests read it to prove a re-ship after a lost ack is skipped, not applied twice",
    "ReplicationStats.reseeds": "tests read it to prove compaction past the replica's watermark reseeds it",
    "ReplicationStats.ships": "tests read it to prove acknowledged writes were shipped",
    "RetrieverStats.dense_fallbacks": "tests read it to prove a two-stage query with no postings falls back to dense",
    "RetrieverStats.dense_queries": "tests read it to prove auto mode picks dense for a small corpus",
    "SchedulerStats.microbatches": "tests read it to tell barriered microbatches from one continuous batch",
    "SchedulerStats.queue_wait_max": "tests read it to prove submission-to-dispatch waits are taken on the injected clock",
    "SchedulerStats.queue_wait_total": "tests read it to prove submission-to-dispatch waits are taken on the injected clock",
    "SemanticCacheStats.invalidations": "tests read it to prove re-registering a model flushes the engine's entries",
    "SemanticCacheStats.skipped_completion_tokens": "tests read it to prove a hit credits the entry's decode tokens",
    "SemanticCacheStats.skipped_prompt_tokens": "tests read it to prove a hit credits the entry's prefill tokens",
}


def _counters(tree: ast.Module) -> Dict[str, int]:
    """``Class.member`` -> line for every field and property of a ``*Stats`` class."""
    found: Dict[str, int] = {}
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and cls.name.endswith("Stats")):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                found[f"{cls.name}.{node.target.id}"] = node.lineno
            elif isinstance(node, ast.FunctionDef) and any(
                isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list
            ):
                found[f"{cls.name}.{node.name}"] = node.lineno
    return found


def _reads(tree: ast.Module) -> Set[Tuple[str, str]]:
    """``(enclosing *Stats class or "", name)`` for every read in ``tree``."""
    updates = set()  # loads of the name their own assignment stores
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and node.value:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            stored = {t.attr for t in targets if isinstance(t, ast.Attribute)}
            updates |= {
                id(n) for n in ast.walk(node.value)
                if isinstance(n, ast.Attribute) and n.attr in stored
            }
    reads: Set[Tuple[str, str]] = set()

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, ast.ClassDef) and node.name.endswith("Stats"):
            owner = node.name
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in updates
        ):
            reads.add((owner, node.attr))
        keys = []
        if isinstance(node, ast.Subscript):
            keys = [node.slice]
        elif isinstance(node, ast.Dict):
            keys = node.keys
        reads.update(
            (owner, k.value) for k in keys
            if isinstance(k, ast.Constant) and isinstance(k.value, str)
        )
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "")
    return reads


def unread_counters(root: Path) -> Dict[str, str]:
    """``Class.member`` -> ``path:line`` for every counter nothing reads."""
    counters: Dict[str, str] = {}
    for path in _python_files([root / "src"]):
        for key, line in _counters(_parse(path)).items():
            counters[key] = f"{path.relative_to(root)}:{line}"
    reads: Set[Tuple[str, str]] = set()
    for path in _python_files([root / d for d in READER_DIRS if (root / d).exists()]):
        reads |= _reads(_parse(path))
    return {
        key: where for key, where in counters.items()
        if not any(
            name == key.split(".")[1] and owner != key.split(".")[0]
            for owner, name in reads
        )
    }


def unlisted_and_stale(
    found: Dict[str, str], listed: Dict[str, str]
) -> Tuple[List[str], List[str]]:
    return sorted(set(found) - set(listed)), sorted(set(listed) - set(found))


@pytest.fixture(scope="module")
def found():
    return unread_counters(ROOT)


def test_every_unread_counter_is_listed(found):
    unlisted, _ = unlisted_and_stale(found, EXCEPTIONS)
    assert not unlisted, (
        "counters nothing under src/, benchmarks/, examples/ or e2ebench/ "
        "reads; delete them, or list them in EXCEPTIONS with a reason:\n"
        + "\n".join(f"{found[key]}: {key}" for key in unlisted)
    )


def test_every_listed_counter_is_still_unread(found):
    _, stale = unlisted_and_stale(found, EXCEPTIONS)
    assert not stale, (
        "listed counters that something now reads (or that are gone); "
        "remove their entries:\n" + "\n".join(stale)
    )


def test_every_entry_has_a_reason():
    assert all(reason.strip() for reason in EXCEPTIONS.values())


SYNTHETIC = {
    "src/pkg/mod.py": """
        from dataclasses import dataclass

        @dataclass
        class FooStats:
            read: int = 0
            unread: int = 0
            peak: int = 0
            keyed: int = 0

            @property
            def total(self):
                return self.read + self.unread

        class Worker:
            def __init__(self):
                self.stats = FooStats()

            def step(self, n):
                self.stats.unread += 1
                self.stats.peak = max(self.stats.peak, n)
    """,
    "examples/use.py": """
        from pkg.mod import Worker

        worker = Worker()
        print(worker.stats.read, {"keyed": 1}["keyed"])
    """,
    "tests/test_use.py": """
        from pkg.mod import Worker

        assert Worker().stats.total == 0
    """,
}


@pytest.fixture
def synthetic(tmp_path):
    for rel, text in SYNTHETIC.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return tmp_path


class TestScan:
    def test_flags_exactly_the_unread_counters(self, synthetic):
        # ``unread`` is only incremented and read inside its own class;
        # ``peak`` only in its own update; ``total`` only by a test.
        assert sorted(unread_counters(synthetic)) == [
            "FooStats.peak",
            "FooStats.total",
            "FooStats.unread",
        ]

    def test_attribute_load_and_string_key_are_reads(self, synthetic):
        found = unread_counters(synthetic)
        assert "FooStats.read" not in found
        assert "FooStats.keyed" not in found

    def test_listed_counter_that_is_now_read_is_stale(self, synthetic):
        found = unread_counters(synthetic)
        listed = {"FooStats.peak": "r", "FooStats.read": "r", "FooStats.total": "r"}
        assert unlisted_and_stale(found, listed) == (
            ["FooStats.unread"],
            ["FooStats.read"],
        )
