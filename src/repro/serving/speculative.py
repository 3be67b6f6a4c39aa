"""Draft models for speculative decoding.

Speculative decoding itself is a per-step proposer inside the one
decode loop of :class:`~repro.serving.engine.BatchedGenerator` (pass
``draft=`` there, or ``draft_model=`` to
:class:`~repro.serving.scheduler.BatchScheduler`). Because the target
verifies every proposal, the output never depends on the draft: draft
quality only buys throughput. This module builds drafts —
:func:`draft_config` shrinks a target's geometry, and
:func:`distill_draft` trains a small model to imitate the target's
greedy output.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.autograd import cross_entropy
from repro.errors import GenerationError
from repro.generation.decoding import GenerationConfig
from repro.models.config import ModelConfig
from repro.models.gpt import GPTModel
from repro.serving.engine import BatchedGenerator, BatchRequest


def draft_config(config: ModelConfig, num_layers: int = 1) -> ModelConfig:
    """A draft variant of ``config``: same geometry, fewer layers."""
    if num_layers <= 0 or num_layers > config.num_layers:
        raise GenerationError(
            f"draft num_layers must be in 1..{config.num_layers}"
        )
    return dataclasses.replace(config, num_layers=num_layers)


def distill_draft(
    model: GPTModel,
    prompts: Sequence[Sequence[int]],
    num_layers: int = 1,
    steps: int = 60,
    lr: float = 3e-3,
    max_new_tokens: int = 16,
    seed: int = 1,
) -> GPTModel:
    """Train a small draft GPT to imitate ``model``'s greedy output.

    Generates the target's greedy continuations for ``prompts`` (one
    batched pass), then trains a fresh ``num_layers``-layer GPT with a
    causal-LM loss on the prompt+continuation rows. Because the verify
    step makes draft quality a pure throughput knob, even this few-step
    distillation is enough to push acceptance high on the workload it
    was fit to — the draft only has to predict the target's argmax, not
    its full distribution.
    """
    from repro.training.data import IGNORE_INDEX
    from repro.training.optim import AdamW

    if not prompts:
        raise GenerationError("distillation needs at least one prompt")
    draft = GPTModel(draft_config(model.config, num_layers), seed=seed)
    engine = BatchedGenerator(model)
    gen_config = GenerationConfig(max_new_tokens=max_new_tokens)
    served = engine.generate(
        [BatchRequest(list(p), gen_config) for p in prompts]
    )
    rows = [
        list(p) + result.sequences[0]
        for p, result in zip(prompts, served)
    ]
    width = max(len(row) for row in rows)
    ids = np.zeros((len(rows), width), dtype=np.int64)
    labels = np.full((len(rows), width), IGNORE_INDEX, dtype=np.int64)
    for i, row in enumerate(rows):
        ids[i, : len(row)] = row
        labels[i, : len(row) - 1] = row[1:]

    optimizer = AdamW(draft.parameters(), lr=lr)
    draft.train()
    for _ in range(steps):
        logits = draft(ids)
        flat = logits.reshape(-1, draft.config.vocab_size)
        loss = cross_entropy(
            flat, labels.reshape(-1), ignore_index=IGNORE_INDEX
        )
        optimizer.zero_grad()
        loss.backward()
        optimizer.clip_grad_norm(1.0)
        optimizer.step()
    draft.eval()
    return draft
