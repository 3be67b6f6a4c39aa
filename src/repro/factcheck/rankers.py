"""Claim-to-query rankers: lexical keywords vs a fine-tuned LM."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.autograd import cross_entropy
from repro.errors import FactCheckError
from repro.factcheck.claims import Claim, ClaimWorkload
from repro.factcheck.queries import CandidateQuery, enumerate_candidates
from repro.models import GPTModel, ModelConfig
from repro.prompting import score_continuation
from repro.tokenizers import WhitespaceTokenizer
from repro.training.data import IGNORE_INDEX
from repro.training.optim import AdamW
from repro.utils.rng import SeededRNG
from repro.utils.text import simple_word_tokenize

#: ranker model width, training sequence length and learning rate
DIM, SEQ_LEN, LR = 48, 48, 3e-3

_AGG_KEYWORDS = {
    "count": ["many", "number", "consists", "employs", "total number", "overall"],
    "avg": ["average", "mean"],
    "max": ["highest", "maximum", "exceeds"],
    "min": ["lowest", "minimum"],
    "sum": ["combined", "total"],
}


class KeywordRanker:
    """Score candidates by lexical overlap between claim and description."""

    def rank(
        self, claim_text: str, candidates: Sequence[CandidateQuery]
    ) -> List[Tuple[CandidateQuery, float]]:
        words = set(simple_word_tokenize(claim_text.lower()))
        scored = []
        for candidate in candidates:
            score = 0.0
            for keyword in _AGG_KEYWORDS.get(candidate.agg, []):
                if keyword in claim_text.lower():
                    score += 1.0
            if candidate.column and candidate.column in words:
                score += 2.0
            if candidate.filter_value:
                if candidate.filter_value in words:
                    score += 2.0
                else:
                    score -= 1.0
            scored.append((candidate, score))
        scored.sort(key=lambda pair: -pair[1])
        return scored

    def best(self, claim_text: str, candidates: Sequence[CandidateQuery]) -> CandidateQuery:
        return self.rank(claim_text, candidates)[0][0]


class LMRanker:
    """Rank candidates by LM likelihood of ``claim ; query : <description>``."""

    def __init__(self, model: GPTModel, tokenizer) -> None:
        self.model = model
        self.tokenizer = tokenizer

    def rank(
        self, claim_text: str, candidates: Sequence[CandidateQuery]
    ) -> List[Tuple[CandidateQuery, float]]:
        prompt = f"claim : {claim_text} ; query :"
        scored = []
        for candidate in candidates:
            description = candidate.description()
            length = max(len(simple_word_tokenize(description)), 1)
            score = score_continuation(
                self.model, self.tokenizer, prompt, description
            ) / length
            scored.append((candidate, score))
        scored.sort(key=lambda pair: -pair[1])
        return scored

    def best(self, claim_text: str, candidates: Sequence[CandidateQuery]) -> CandidateQuery:
        return self.rank(claim_text, candidates)[0][0]


def train_lm_ranker(
    workload: ClaimWorkload,
    train_claims: Sequence[Claim],
    steps: int = 200,
    seed: int = 0,
) -> LMRanker:
    """Fine-tune a small LM on (claim text -> gold query description)."""
    if not train_claims:
        raise FactCheckError("no training claims")
    texts = []
    for claim in train_claims:
        gold = CandidateQuery(
            agg=claim.agg, column=claim.column, filter_value=claim.filter_value
        )
        texts.append(f"claim : {claim.text} ; query : {gold.description()}")
    # Ensure every candidate description is in-vocabulary.
    vocab_texts = texts + [c.description() for c in enumerate_candidates(workload)]
    tokenizer = WhitespaceTokenizer(lowercase=True)
    tokenizer.train(vocab_texts, vocab_size=2048)

    config = ModelConfig(
        vocab_size=tokenizer.vocab_size,
        max_seq_len=SEQ_LEN,
        dim=DIM,
        num_layers=2,
        num_heads=DIM // 16,
        ff_dim=4 * DIM,
        causal=True,
    )
    model = GPTModel(config, seed=seed)
    rows = []
    for text in texts:
        ids = tokenizer.encode(text, add_bos=True, add_eos=True, max_length=SEQ_LEN).ids
        rows.append(ids + [tokenizer.vocab.pad_id] * (SEQ_LEN - len(ids)))
    data = np.array(rows, dtype=np.int64)

    rng = SeededRNG(seed)
    optimizer = AdamW(model.parameters(), lr=LR)
    n = data.shape[0]
    pad = tokenizer.vocab.pad_id
    for _ in range(steps):
        idx = rng.generator.choice(n, size=min(16, n), replace=False)
        inputs = data[idx, :-1]
        targets = data[idx, 1:].copy()
        targets[targets == pad] = IGNORE_INDEX
        logits = model(inputs)
        loss = cross_entropy(
            logits.reshape(-1, config.vocab_size),
            targets.reshape(-1),
            ignore_index=IGNORE_INDEX,
        )
        optimizer.zero_grad()
        loss.backward()
        optimizer.clip_grad_norm(1.0)
        optimizer.step()
    return LMRanker(model=model, tokenizer=tokenizer)
