"""The NeuralDatabase: retrieval + reader + aggregation operators."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Union

from repro.errors import NeuralDBError
from repro.neuraldb.reader import NeuralReader
from repro.neuraldb.retriever import EmbeddingRetriever, LexicalRetriever

Retriever = Union[LexicalRetriever, EmbeddingRetriever]


@dataclass
class QueryOutcome:
    """An answer plus the provenance NeuralDB exposes."""

    answer: Union[str, int]
    supporting_facts: List[str] = field(default_factory=list)


class NeuralDatabase:
    """Facts in, natural-language queries out — no schema anywhere.

    Three operator types cover the query families of the NeuralDB paper
    at our scale:

    * :meth:`lookup` — single-fact answer extraction;
    * :meth:`count` — aggregate over per-fact reader outputs;
    * :meth:`join_lookup` — two-hop composition (person -> department ->
      building) through intermediate answers.

    Scan operators (:meth:`count`, :meth:`count_department`) and the
    batch entry points (:meth:`lookup_batch`, :meth:`join_lookup_batch`)
    run every per-fact reader prompt through one batched decode
    (:meth:`~repro.neuraldb.reader.NeuralReader.read_batch`) instead of
    a per-fact generation loop. Mutations are delegated to the
    retriever's incremental index — inserting a fact embeds that fact
    alone, never the corpus.
    """

    def __init__(self, retriever: Retriever, reader: NeuralReader) -> None:
        self.retriever = retriever
        self.reader = reader

    @property
    def facts(self) -> List[str]:
        return list(self.retriever.facts)

    # -- mutations (NeuralDB supports inserts/deletes of facts) -------------
    def add_fact(self, fact: str) -> None:
        """Insert one NL fact and index it incrementally."""
        if not fact.strip():
            raise NeuralDBError("cannot store an empty fact")
        self.retriever.add_fact(fact)

    def remove_fact(self, fact: str) -> None:
        """Delete one NL fact (exact match); its index entry tombstones."""
        if fact not in self.retriever.facts:
            raise NeuralDBError(f"fact not stored: {fact!r}")
        if len(self.retriever.facts) == 1:
            raise NeuralDBError("cannot remove the last fact of the store")
        self.retriever.remove_fact(fact)

    # -- operators ----------------------------------------------------------
    def lookup(self, question: str, top_k: int = 2) -> QueryOutcome:
        """Answer from the single best-supported fact."""
        return self.lookup_batch([question], top_k=top_k)[0]

    def lookup_batch(
        self, questions: Sequence[str], top_k: int = 2
    ) -> List[QueryOutcome]:
        """One :meth:`lookup` per question, read in one batched decode."""
        if not questions:
            return []
        hits_per_question = [
            self.retriever.retrieve(question, top_k=top_k)
            for question in questions
        ]
        for hits in hits_per_question:
            if not hits:
                raise NeuralDBError("retriever returned no facts")
        answers = self.reader.read_batch(
            [
                (hits[0][0], question)
                for hits, question in zip(hits_per_question, questions)
            ]
        )
        return [
            QueryOutcome(answer=answer, supporting_facts=[h[0] for h in hits])
            for answer, hits in zip(answers, hits_per_question)
        ]

    def count(self, entity: str, question_of_fact: str, expected: str) -> QueryOutcome:
        """Count facts whose per-fact answer equals ``expected``.

        ``question_of_fact`` is asked against *every* fact (the scan is
        NeuralDB's parallelizable select — one batched decode here);
        facts answering ``expected`` are tallied. ``entity`` is only
        used to phrase provenance.
        """
        facts = self.retriever.facts
        answers = self.reader.read_batch(
            [(fact, question_of_fact.format(fact=fact)) for fact in facts]
        )
        supporting = [
            fact for fact, answer in zip(facts, answers) if answer == expected
        ]
        return QueryOutcome(answer=len(supporting), supporting_facts=supporting)

    def count_department(self, dept: str) -> QueryOutcome:
        """How many people work in ``dept``? (a canonical count query)."""
        person_facts = [
            fact
            for fact in self.retriever.facts
            # location facts describe departments, not people
            if "located" not in fact and "sits" not in fact
        ]
        answers = self.reader.read_batch(
            [(fact, "where does this person work ?") for fact in person_facts]
        )
        supporting = [
            fact for fact, answer in zip(person_facts, answers) if answer == dept
        ]
        return QueryOutcome(answer=len(supporting), supporting_facts=supporting)

    def join_lookup(self, person: str) -> QueryOutcome:
        """Which building does ``person`` work in? (two-hop join)."""
        return self.join_lookup_batch([person])[0]

    def join_lookup_batch(self, persons: Sequence[str]) -> List[QueryOutcome]:
        """Two-hop joins, each hop one batched decode across persons."""
        if not persons:
            return []
        first = self.lookup_batch(
            [f"where does {person} work ?" for person in persons]
        )
        second = self.lookup_batch(
            [f"where is {outcome.answer} located ?" for outcome in first]
        )
        return [
            QueryOutcome(
                answer=hop2.answer,
                supporting_facts=(
                    hop1.supporting_facts[:1] + hop2.supporting_facts[:1]
                ),
            )
            for hop1, hop2 in zip(first, second)
        ]
