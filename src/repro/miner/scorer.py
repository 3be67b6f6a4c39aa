"""Goal-to-fact relevance scoring for summary mining."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import ReproError
from repro.miner.facts import DataFact
from repro.models import GPTModel, ModelConfig
from repro.prompting import score_continuation
from repro.tokenizers import WhitespaceTokenizer
from repro.training.data import IGNORE_INDEX
from repro.training.optim import AdamW
from repro.autograd import cross_entropy
from repro.utils.rng import SeededRNG
from repro.utils.text import simple_word_tokenize

#: scorer model width and training sequence length
DIM, SEQ_LEN = 48, 40


class KeywordRelevanceScorer:
    """Baseline: count goal words occurring in the fact sentence."""

    def __init__(self) -> None:
        self.calls = 0

    def score(self, goal: str, fact: DataFact) -> float:
        self.calls += 1
        goal_words = set(simple_word_tokenize(goal.lower()))
        fact_words = set(simple_word_tokenize(fact.sentence().lower()))
        return len(goal_words & fact_words)


def _fact_key(fact: DataFact) -> str:
    """The canonical description a scorer learns to associate with goals."""
    return f"{fact.filter_column} {fact.filter_value} {fact.agg} {fact.metric} {fact.direction}"


class LMRelevanceScorer:
    """A fine-tuned LM scores ``goal ; fact : <description>`` likelihood."""

    def __init__(self, model: GPTModel, tokenizer) -> None:
        self.model = model
        self.tokenizer = tokenizer
        self.calls = 0

    def score(self, goal: str, fact: DataFact) -> float:
        self.calls += 1
        description = _fact_key(fact)
        length = max(len(simple_word_tokenize(description)), 1)
        return score_continuation(
            self.model, self.tokenizer, f"goal : {goal} ; fact :", description
        ) / length


# Training goals pair a phenomenon phrasing with its fact signature.
_GOAL_TEMPLATES = [
    ("how does {value} differ on {metric}", "{column} {value} {{agg}} {metric} {{direction}}"),
    ("why is {metric} unusual for {value}", "{column} {value} {{agg}} {metric} {{direction}}"),
    ("tell me about {metric} in the {value} group", "{column} {value} {{agg}} {metric} {{direction}}"),
]


def train_relevance_scorer(
    facts: Sequence[DataFact],
    steps: int = 200,
    seed: int = 0,
) -> LMRelevanceScorer:
    """Fine-tune a small LM on synthetic (goal, relevant fact) pairs.

    For every candidate fact we render goals that a user interested in
    that fact would state; the LM learns to complete goals with the
    matching fact signature, which at scoring time ranks relevant facts
    above unrelated ones.
    """
    if not facts:
        raise ReproError("no facts to train the scorer on")
    rng = SeededRNG(seed)
    texts: List[str] = []
    for fact in facts:
        for goal_template, _ in _GOAL_TEMPLATES:
            goal = goal_template.format(
                value=fact.filter_value, metric=fact.metric, column=fact.filter_column
            )
            texts.append(f"goal : {goal} ; fact : {_fact_key(fact)}")

    tokenizer = WhitespaceTokenizer(lowercase=True)
    tokenizer.train(texts, vocab_size=2048)
    config = ModelConfig(
        vocab_size=tokenizer.vocab_size, max_seq_len=SEQ_LEN, dim=DIM,
        num_layers=2, num_heads=DIM // 16, ff_dim=4 * DIM, causal=True,
    )
    model = GPTModel(config, seed=seed)

    rows = []
    for text in texts:
        ids = tokenizer.encode(text, add_bos=True, add_eos=True, max_length=SEQ_LEN).ids
        rows.append(ids + [tokenizer.vocab.pad_id] * (SEQ_LEN - len(ids)))
    data = np.array(rows, dtype=np.int64)
    pad = tokenizer.vocab.pad_id

    optimizer = AdamW(model.parameters(), lr=3e-3)
    for _ in range(steps):
        idx = rng.generator.choice(data.shape[0], size=min(16, data.shape[0]), replace=False)
        inputs = data[idx, :-1]
        targets = data[idx, 1:].copy()
        targets[targets == pad] = IGNORE_INDEX
        logits = model(inputs)
        loss = cross_entropy(
            logits.reshape(-1, config.vocab_size), targets.reshape(-1),
            ignore_index=IGNORE_INDEX,
        )
        optimizer.zero_grad()
        loss.backward()
        optimizer.clip_grad_norm(1.0)
        optimizer.step()
    return LMRelevanceScorer(model=model, tokenizer=tokenizer)
