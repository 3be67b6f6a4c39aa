"""Synthetic DBMS manuals: tuning hints buried in prose.

Each manual sentence either carries a (knob, value) recommendation —
phrased transparently or as a paraphrase — or is filler. Sentences are
labeled so extractors can be trained and evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.utils.rng import SeededRNG


@dataclass(frozen=True)
class ManualSentence:
    """One sentence with its gold annotation (None for filler)."""

    text: str
    knob: Optional[str] = None
    value: Optional[int] = None  # booleans encoded as 1/0

    @property
    def is_hint(self) -> bool:
        return self.knob is not None


# (template, is_transparent). Transparent hints follow the "set X to Y"
# shape a regex can catch; paraphrases need understanding.
_HINT_TEMPLATES = {
    "buffer_pool_mb": [
        ("set buffer_pool_mb to {v} for analytical workloads .", True),
        ("we recommend a buffer pool of {v} megabytes for scan heavy use .", False),
        ("allocating {v} mb to the page cache avoids repeated disk reads .", False),
    ],
    "worker_threads": [
        ("set worker_threads to {v} on multicore servers .", True),
        ("parallel scans benefit from {v} execution threads .", False),
        ("use one thread per core , typically {v} on modern hardware .", False),
    ],
    "log_buffer_kb": [
        ("set log_buffer_kb to {v} for write intensive workloads .", True),
        ("a write ahead log staging area of {v} kilobytes reduces flushes .", False),
        ("sizing the wal buffer at {v} kb batches commits efficiently .", False),
    ],
    "compression": [
        ("set compression to {v} when storage bandwidth is the bottleneck .", True),
        ("enabling page compression trades cpu for io , worthwhile on slow disks .", False),
    ],
}

_GOOD_VALUES = {
    "buffer_pool_mb": [1024, 2048],
    "worker_threads": [8],
    "log_buffer_kb": [1024, 2048],
    "compression": [1],
}

_FILLER = [
    "the query optimizer chooses join orders based on estimated cardinalities .",
    "statistics are refreshed automatically during low activity periods .",
    "backups should be scheduled outside of business hours .",
    "the parser rejects statements with unbalanced parentheses .",
    "views are expanded inline before optimization .",
    "user privileges are checked at statement compilation time .",
    "temporary tables live only for the duration of a session .",
    "the catalog stores one schema record per table .",
    "deadlock detection runs every few seconds .",
    "foreign keys enforce referential integrity on updates .",
]


def generate_manual(
    num_sentences: int = 60, hint_fraction: float = 0.4, seed: int = 0
) -> List[ManualSentence]:
    """A shuffled manual with the given fraction of hint sentences."""
    rng = SeededRNG(seed)
    sentences: List[ManualSentence] = []
    num_hints = int(num_sentences * hint_fraction)
    knobs = list(_HINT_TEMPLATES)
    for i in range(num_hints):
        knob = knobs[i % len(knobs)]
        template, _ = rng.choice(_HINT_TEMPLATES[knob])
        value = rng.choice(_GOOD_VALUES[knob])
        rendered_value = value
        if knob == "compression":
            rendered_value = "on" if value else "off"
        sentences.append(
            ManualSentence(
                text=template.format(v=rendered_value), knob=knob, value=value
            )
        )
    for _ in range(num_sentences - num_hints):
        sentences.append(ManualSentence(text=rng.choice(_FILLER)))
    return rng.shuffled(sentences)
