"""The neural reader: ``fact + question -> answer`` with a fine-tuned LM."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import cross_entropy
from repro.errors import NeuralDBError
from repro.generation import GenerationConfig, generate
from repro.models import GPTModel, ModelConfig
from repro.tokenizers import Tokenizer, WhitespaceTokenizer
from repro.training.data import IGNORE_INDEX
from repro.training.optim import AdamW
from repro.utils.rng import SeededRNG

#: reader model width, training sequence length and learning rate
DIM, SEQ_LEN, LR = 48, 40, 3e-3


def _linearize(fact: str, question: str, answer: Optional[str] = None) -> str:
    base = f"fact : {fact} question : {question} answer :"
    return f"{base} {answer}" if answer is not None else base


class NeuralReader:
    """Answers a question against one retrieved fact."""

    def __init__(self, model: GPTModel, tokenizer: Tokenizer) -> None:
        self.model = model
        self.tokenizer = tokenizer

    def read(self, fact: str, question: str) -> str:
        prompt_ids = self.tokenizer.encode(
            _linearize(fact, question), add_bos=True
        ).ids
        out_ids = generate(self.model, prompt_ids, self._config())
        return self.tokenizer.decode(out_ids).strip()

    def read_batch(self, items: Sequence[Tuple[str, str]]) -> List[str]:
        """One answer per ``(fact, question)`` pair, decoded in batches.

        Runs every prompt through the serving
        :class:`~repro.serving.scheduler.BatchScheduler`, whose greedy
        decoding is token-identical to per-pair :meth:`read` — this is
        what the aggregation operators' full-store scans call instead
        of a per-fact generation loop.
        """
        if not items:
            return []
        from repro.serving import BatchRequest, BatchScheduler

        scheduler = BatchScheduler(self.model, max_batch_size=8)
        config = self._config()
        tickets = [
            scheduler.submit(
                BatchRequest(
                    self.tokenizer.encode(
                        _linearize(fact, question), add_bos=True
                    ).ids,
                    config,
                )
            )
            for fact, question in items
        ]
        results = scheduler.run()
        return [
            self.tokenizer.decode(results[ticket].sequences[0]).strip()
            for ticket in tickets
        ]

    def _config(self) -> GenerationConfig:
        return GenerationConfig(
            max_new_tokens=4,
            strategy="greedy",
            stop_ids=(self.tokenizer.vocab.eos_id,),
        )


def train_reader(
    triples: Sequence[Tuple[str, str, str]],
    steps: int = 250,
    seed: int = 0,
) -> NeuralReader:
    """Fine-tune a causal LM on (fact, question, answer) triples."""
    if not triples:
        raise NeuralDBError("no training triples")
    texts = [_linearize(f, q, a) for f, q, a in triples]
    tokenizer = WhitespaceTokenizer(lowercase=True)
    tokenizer.train(texts, vocab_size=2048)

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
    pad = tokenizer.vocab.pad_id
    for _ in range(steps):
        idx = rng.generator.choice(data.shape[0], size=min(16, data.shape[0]), replace=False)
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
    return NeuralReader(model=model, tokenizer=tokenizer)
