"""Durable NeuralDB: persist the fact log, reindex on reopen.

A :class:`~repro.neuraldb.NeuralDatabase` keeps its facts in memory and
its index inside a retriever object; neither survives the process. This
wrapper writes every ``add_fact``/``remove_fact`` through the same
framed, CRC-checked log the SQL engine uses (one fsync per acknowledged
mutation), and on :meth:`open` replays the log into a fact list and
hands it to a caller-supplied retriever factory — so a reopened store
reindexes to *exactly* the state of the last acknowledged mutation and
answers ``lookup``/``count`` queries identically.

The retriever factory keeps the policy with the caller: a
``LexicalRetriever`` rebuilds instantly, an ``EmbeddingRetriever``
re-pretrains deterministically from its seed. Only the *facts* are
state; everything else is a pure function of them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

from repro.durability.crash import CrashInjector
from repro.durability.wal import WriteAheadLog, read_wal
from repro.errors import DurabilityError, NeuralDBError, WALCorruptionError
from repro.neuraldb.reader import NeuralReader
from repro.neuraldb.store import NeuralDatabase, QueryOutcome

#: builds a retriever (Lexical/Embedding/...) from a recovered fact list
RetrieverFactory = Callable[[List[str]], object]


class DurableNeuralDatabase:
    """A :class:`NeuralDatabase` whose fact store survives crashes."""

    LOG_NAME = "facts.log"

    def __init__(
        self,
        directory: Union[str, Path],
        retriever_factory: RetrieverFactory,
        reader: NeuralReader,
        initial_facts: Optional[Sequence[str]] = None,
        crash: Optional[CrashInjector] = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.log_path = self.directory / self.LOG_NAME
        scan = read_wal(self.log_path)
        if scan.error is not None:
            raise WALCorruptionError(
                f"fact log {self.log_path} is corrupt: {scan.error}"
            )
        facts = _replay_facts(scan.records, self.log_path)
        self.log = WriteAheadLog(
            self.log_path,
            crash=crash,
            next_lsn=scan.last_lsn + 1,
        )
        if scan.torn_bytes:
            self.log.truncate_to(scan.valid_bytes)
        #: torn-tail bytes dropped while opening (0 for a clean log)
        self.repaired_bytes = scan.torn_bytes
        if not facts:
            if not initial_facts:
                raise NeuralDBError(
                    f"fact log {self.log_path} is empty; pass initial_facts "
                    "to seed the store"
                )
            for fact in initial_facts:
                _check_fact(fact)
                self.log.append({"t": "add", "fact": fact}, sync=False)
                facts.append(fact)
            self.log.sync()
        self.db = NeuralDatabase(retriever_factory(facts), reader)

    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        retriever_factory: RetrieverFactory,
        reader: NeuralReader,
        **kwargs,
    ) -> "DurableNeuralDatabase":
        """Open (creating or recovering) a durable fact store."""
        return cls(directory, retriever_factory, reader, **kwargs)

    # -- durable mutations -------------------------------------------------
    def add_fact(self, fact: str) -> None:
        """Insert one fact: logged and fsynced before it is indexed."""
        _check_fact(fact)
        self.log.append({"t": "add", "fact": fact}, sync=True)
        self.db.add_fact(fact)

    def remove_fact(self, fact: str) -> None:
        """Delete one fact (exact match), durably."""
        if fact not in self.db.retriever.facts:
            raise NeuralDBError(f"fact not stored: {fact!r}")
        if len(self.db.retriever.facts) == 1:
            raise NeuralDBError("cannot remove the last fact of the store")
        self.log.append({"t": "remove", "fact": fact}, sync=True)
        self.db.remove_fact(fact)

    # -- query passthrough -------------------------------------------------
    @property
    def facts(self) -> List[str]:
        return self.db.facts

    def lookup(self, question: str, top_k: int = 2) -> QueryOutcome:
        return self.db.lookup(question, top_k=top_k)

    def count(
        self, entity: str, question_of_fact: str, expected: str
    ) -> QueryOutcome:
        return self.db.count(entity, question_of_fact, expected)

    def count_department(self, dept: str) -> QueryOutcome:
        return self.db.count_department(dept)

    def join_lookup(self, person: str) -> QueryOutcome:
        return self.db.join_lookup(person)

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        self.log.close()

    def __enter__(self) -> "DurableNeuralDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _check_fact(fact: str) -> None:
    if not fact or not fact.strip():
        raise NeuralDBError("cannot store an empty fact")


def _replay_facts(records, path: Path) -> List[str]:
    facts: List[str] = []
    for record in records:
        kind = record.get("t")
        if kind == "add":
            facts.append(record["fact"])
        elif kind == "remove":
            try:
                facts.remove(record["fact"])
            except ValueError:
                raise DurabilityError(
                    f"fact log {path} removes a fact that was never "
                    f"added: {record['fact']!r} (lsn {record.get('lsn')})"
                ) from None
        else:
            raise WALCorruptionError(
                f"unknown fact-log record type {kind!r} in {path} "
                f"(lsn {record.get('lsn')})"
            )
    return facts
