"""Evaluate a NeuralDatabase against its world's ground truth."""

from __future__ import annotations

from dataclasses import dataclass

from repro.neuraldb.facts import FactWorld
from repro.neuraldb.store import NeuralDatabase


@dataclass
class NeuralDBReport:
    """Accuracy per query family."""

    lookup_accuracy: float = 0.0
    count_accuracy: float = 0.0
    join_accuracy: float = 0.0

    def overall(self) -> float:
        return (self.lookup_accuracy + self.count_accuracy + self.join_accuracy) / 3


def evaluate_neuraldb(ndb: NeuralDatabase, world: FactWorld) -> NeuralDBReport:
    """Score lookup, count, and join queries against ground truth.

    Lookup and join queries run through the store's batch entry points,
    so each query family is a handful of batched decodes rather than a
    per-person generation loop.
    """
    people = world.people
    lookup_outcomes = ndb.lookup_batch(
        [f"where does {person} work ?" for person in people]
    )
    lookup_hits = sum(
        int(str(outcome.answer) == world.works_in[person])
        for person, outcome in zip(people, lookup_outcomes)
    )

    count_hits = 0
    for dept in world.departments:
        outcome = ndb.count_department(dept)
        count_hits += int(outcome.answer == world.count_in_department(dept))

    join_outcomes = ndb.join_lookup_batch(people)
    join_hits = sum(
        int(str(outcome.answer) == world.building_of_person(person))
        for person, outcome in zip(people, join_outcomes)
    )

    return NeuralDBReport(
        lookup_accuracy=lookup_hits / len(world.works_in),
        count_accuracy=count_hits / len(world.departments),
        join_accuracy=join_hits / len(world.people),
    )
