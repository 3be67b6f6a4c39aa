"""Unsupervised pre-training loops: masked LM (BERT) and causal LM (GPT).

These implement Section 2.2 of the tutorial: language models are trained
on tasks for which training data is free — filling in masked words, or
completing a prefix — with no manual labeling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.autograd import cross_entropy, no_grad
from repro.errors import TrainingError
from repro.models.bert import BERTModel
from repro.models.gpt import GPTModel
from repro.tokenizers import Tokenizer
from repro.training.data import (
    IGNORE_INDEX,
    iterate_minibatches,
    make_clm_batch,
    make_mlm_batch,
    pack_corpus,
)
from repro.training.metrics import perplexity
from repro.training.optim import AdamW
from repro.training.schedule import CosineSchedule
from repro.utils.rng import SeededRNG

#: peak learning rate of both pre-training loops
LR = 3e-3
#: rows scored by :func:`evaluate_mlm` and :func:`evaluate_clm`
EVAL_ROWS = 32


@dataclass
class PretrainReport:
    """Loss trajectory and final quality of a pre-training run."""

    steps: int
    losses: List[float] = field(default_factory=list)
    final_loss: float = float("inf")
    final_perplexity: float = float("inf")

    def loss_at(self, fraction: float) -> float:
        """Smoothed loss at a fractional position of the run (0..1)."""
        if not self.losses:
            raise TrainingError("empty loss history")
        idx = min(int(fraction * (len(self.losses) - 1)), len(self.losses) - 1)
        lo = max(0, idx - 2)
        window = self.losses[lo: idx + 3]
        return float(np.mean(window))


def pretrain_mlm(
    model: BERTModel,
    tokenizer: Tokenizer,
    corpus: Sequence[str],
    steps: int = 100,
    batch_size: int = 8,
    seq_len: Optional[int] = None,
    seed: int = 0,
) -> PretrainReport:
    """Pre-train a BERT-style model with masked language modeling."""
    seq_len = seq_len or model.config.max_seq_len
    rows = pack_corpus(tokenizer, corpus, seq_len)
    rng = SeededRNG(seed)
    optimizer = AdamW(model.parameters(), lr=LR)
    schedule = CosineSchedule(warmup_steps=min(10, steps // 10 + 1), total_steps=steps)
    report = PretrainReport(steps=steps)

    batches = iterate_minibatches(rows, batch_size, rng.spawn("batches"))
    mask_rng = rng.spawn("mask")
    for step in range(steps):
        batch = next(batches)
        inputs, labels = make_mlm_batch(batch, tokenizer, mask_rng)
        logits = model(inputs)
        flat_logits = logits.reshape(-1, model.config.vocab_size)
        loss = cross_entropy(flat_logits, labels.reshape(-1), ignore_index=IGNORE_INDEX)
        optimizer.zero_grad()
        loss.backward()
        optimizer.clip_grad_norm(1.0)
        optimizer.lr = schedule.lr_at(step, LR)
        optimizer.step()
        report.losses.append(loss.item())

    report.final_loss = evaluate_mlm(model, tokenizer, rows, rng.spawn("eval"))
    report.final_perplexity = perplexity(report.final_loss)
    return report


def evaluate_mlm(
    model: BERTModel,
    tokenizer: Tokenizer,
    rows: np.ndarray,
    rng: SeededRNG,
) -> float:
    """Mean masked-token NLL on (a sample of) ``rows``."""
    sample = rows[:EVAL_ROWS]
    inputs, labels = make_mlm_batch(sample, tokenizer, rng)
    with no_grad():
        logits = model(inputs)
        loss = cross_entropy(
            logits.reshape(-1, model.config.vocab_size),
            labels.reshape(-1),
            ignore_index=IGNORE_INDEX,
        )
    return loss.item()


def pretrain_clm(
    model: GPTModel,
    tokenizer: Tokenizer,
    corpus: Sequence[str],
    steps: int = 100,
    batch_size: int = 8,
    seed: int = 0,
) -> PretrainReport:
    """Pre-train a GPT-style model with next-token prediction."""
    rows = pack_corpus(tokenizer, corpus, model.config.max_seq_len)
    rng = SeededRNG(seed)
    optimizer = AdamW(model.parameters(), lr=LR)
    schedule = CosineSchedule(warmup_steps=min(10, steps // 10 + 1), total_steps=steps)
    report = PretrainReport(steps=steps)

    batches = iterate_minibatches(rows, batch_size, rng.spawn("batches"))
    for step in range(steps):
        inputs, targets = make_clm_batch(next(batches))
        logits = model(inputs)
        loss = cross_entropy(
            logits.reshape(-1, model.config.vocab_size), targets.reshape(-1)
        )
        optimizer.zero_grad()
        loss.backward()
        optimizer.clip_grad_norm(1.0)
        optimizer.lr = schedule.lr_at(step, LR)
        optimizer.step()
        report.losses.append(loss.item())

    report.final_loss = evaluate_clm(model, rows)
    report.final_perplexity = perplexity(report.final_loss)
    return report


def evaluate_clm(model: GPTModel, rows: np.ndarray) -> float:
    """Mean next-token NLL on (a sample of) ``rows``."""
    inputs, targets = make_clm_batch(rows[:EVAL_ROWS])
    with no_grad():
        logits = model(inputs)
        loss = cross_entropy(
            logits.reshape(-1, model.config.vocab_size), targets.reshape(-1)
        )
    return loss.item()
