"""Schema matching: align columns across differently named schemas.

The fourth canonical wrangling task (data integration, §2.5): two
sources describe the same entities with different column vocabularies
("salary" vs "compensation"). Matchers score (source column, target
column) pairs from the column *name* and a sample of its *values*.

* :class:`NameSimilarityMatcher` — string similarity of column names
  (the classical baseline; blind to synonyms).
* :class:`EmbeddingSchemaMatcher` — embeds ``name + sample values``
  with a BERT encoder pre-trained on the serialized columns, and aligns
  by cosine similarity (instance-based matching); value overlap gives
  it the signal name similarity lacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import WrangleError
from repro.models import BERTModel, ModelConfig
from repro.tokenizers import WhitespaceTokenizer
from repro.training import pretrain_mlm
from repro.utils.rng import SeededRNG
from repro.utils.text import levenshtein

#: sampled values per column profile
SAMPLE_SIZE = 4
#: encoder width and MLM pre-training steps of :class:`EmbeddingSchemaMatcher`
DIM, PRETRAIN_STEPS = 32, 50


@dataclass(frozen=True)
class ColumnProfile:
    """One column: its name and a sample of its values."""

    name: str
    sample_values: Tuple[str, ...]

    def text(self) -> str:
        return f"column {self.name} values " + " ".join(self.sample_values)


@dataclass
class SchemaMatchTask:
    """Two schemas plus the gold column correspondence."""

    source: List[ColumnProfile]
    target: List[ColumnProfile]
    gold: Dict[str, str]  # source column name -> target column name


# Column-name synonym pools: (canonical concept, source name, target name,
# value generator key).
_CONCEPTS = [
    ("person", "name", "full_name", "names"),
    ("wage", "salary", "compensation", "numbers"),
    ("years", "age", "years_old", "small_numbers"),
    ("unit", "department", "org_unit", "departments"),
    ("place", "city", "location", "cities"),
    ("mail", "email", "contact_address", "emails"),
]

_VALUE_POOLS = {
    "names": ["alice", "bob", "carol", "dave", "erin", "frank"],
    "numbers": ["52000", "61000", "48000", "75000", "83000"],
    "small_numbers": ["25", "31", "42", "56", "38"],
    "departments": ["engineering", "sales", "marketing", "finance"],
    "cities": ["boston", "denver", "austin", "seattle"],
    "emails": ["a@x.com", "b@x.com", "c@y.org", "d@y.org"],
}


def generate_schema_match_task(num_columns: int = 6, seed: int = 0) -> SchemaMatchTask:
    """A task instance: same concepts, different names, shared value pools."""
    if num_columns > len(_CONCEPTS):
        raise WrangleError(f"at most {len(_CONCEPTS)} columns supported")
    rng = SeededRNG(seed)
    concepts = rng.shuffled(_CONCEPTS)[:num_columns]
    source, target, gold = [], [], {}
    for _, source_name, target_name, pool_key in concepts:
        pool = _VALUE_POOLS[pool_key]
        source.append(
            ColumnProfile(source_name, tuple(rng.sample(pool, min(SAMPLE_SIZE, len(pool)))))
        )
        target.append(
            ColumnProfile(target_name, tuple(rng.sample(pool, min(SAMPLE_SIZE, len(pool)))))
        )
        gold[source_name] = target_name
    return SchemaMatchTask(
        source=source, target=rng.shuffled(target), gold=gold
    )


def _greedy_align(
    scores: Dict[Tuple[str, str], float],
    source: Sequence[ColumnProfile],
    target: Sequence[ColumnProfile],
) -> Dict[str, str]:
    """One-to-one assignment by descending score (greedy matching)."""
    ranked = sorted(scores.items(), key=lambda kv: -kv[1])
    used_source: set = set()
    used_target: set = set()
    mapping: Dict[str, str] = {}
    for (src, dst), _ in ranked:
        if src in used_source or dst in used_target:
            continue
        mapping[src] = dst
        used_source.add(src)
        used_target.add(dst)
    return mapping


class NameSimilarityMatcher:
    """Baseline: normalized edit similarity of the column names only."""

    def match(self, task: SchemaMatchTask) -> Dict[str, str]:
        scores: Dict[Tuple[str, str], float] = {}
        for src in task.source:
            for dst in task.target:
                distance = levenshtein(src.name, dst.name)
                longest = max(len(src.name), len(dst.name), 1)
                scores[(src.name, dst.name)] = 1.0 - distance / longest
        return _greedy_align(scores, task.source, task.target)


class EmbeddingSchemaMatcher:
    """Instance-based matcher over a small pre-trained encoder.

    Column texts (name + sampled values) are embedded and aligned by
    cosine; shared value vocabulary pulls corresponding columns together
    even when names share no characters.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def match(self, task: SchemaMatchTask) -> Dict[str, str]:
        texts = [c.text() for c in task.source + task.target]
        tokenizer = WhitespaceTokenizer(lowercase=True)
        tokenizer.train(texts, vocab_size=512)
        max_len = max(len(tokenizer.encode(t).ids) for t in texts) + 2

        config = ModelConfig(
            vocab_size=tokenizer.vocab_size, max_seq_len=max_len, dim=DIM,
            num_layers=2, num_heads=2, ff_dim=4 * DIM, causal=False,
        )
        encoder = BERTModel(config, seed=self.seed)
        pretrain_mlm(
            encoder, tokenizer, texts, steps=PRETRAIN_STEPS,
            seq_len=min(max_len, 24), seed=self.seed,
        )

        def embed(profile: ColumnProfile) -> np.ndarray:
            encoding = tokenizer.encode(
                profile.text(), max_length=max_len, pad_to=max_len
            )
            vec = encoder.embed_texts(
                np.array([encoding.ids]), np.array([encoding.attention_mask])
            )[0]
            return vec / max(np.linalg.norm(vec), 1e-9)

        source_vecs = {c.name: embed(c) for c in task.source}
        target_vecs = {c.name: embed(c) for c in task.target}
        scores = {
            (s, t): float(sv @ tv)
            for s, sv in source_vecs.items()
            for t, tv in target_vecs.items()
        }
        return _greedy_align(scores, task.source, task.target)


def matching_accuracy(predicted: Dict[str, str], gold: Dict[str, str]) -> float:
    """Fraction of source columns mapped to their gold target."""
    if not gold:
        raise WrangleError("empty gold mapping")
    return sum(predicted.get(s) == t for s, t in gold.items()) / len(gold)
