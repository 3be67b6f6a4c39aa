"""LM-based text-to-SQL: fine-tune a causal LM to emit SQL tokens.

Each training example is linearized as::

    q : <question words> ; sql : <sql tokens> [EOS]

At inference the model is prompted with ``q : <question> ; sql :`` and
decoded greedily — optionally under the PICARD-style
:class:`~repro.text2sql.constraint.SQLGrammarConstraint`.

Two serving shapes are provided: :class:`LMTranslator` calls the model
in process, and :class:`ClientTranslator` routes the same prompt
through the remote-API channel (a
:class:`~repro.api.client.CompletionClient`-shaped object — typically a
:class:`~repro.reliability.client.ResilientClient` — so translation
survives rate limits and transient serving errors, degrading to a
non-LLM fallback translator when the channel is down).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.sqlcheck import check_sql
from repro.autograd import cross_entropy
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    Text2SQLError,
    TransientError,
)
from repro.generation import GenerationConfig, generate
from repro.models import GPTModel, ModelConfig
from repro.serving import engine_serving_stats
from repro.tokenizers import Tokenizer, WhitespaceTokenizer
from repro.training.data import IGNORE_INDEX
from repro.training.optim import AdamW
from repro.training.schedule import CosineSchedule
from repro.text2sql.constraint import SQLGrammarConstraint
from repro.text2sql.workload import (
    Text2SQLExample,
    Text2SQLWorkload,
    sql_to_engine_dialect,
)
from repro.utils.rng import SeededRNG

PROMPT_PREFIX = "q :"
SQL_MARKER = "; sql :"
#: cap on decoded SQL tokens per translation
MAX_NEW_TOKENS = 40


def linearize_example(example: Text2SQLExample) -> str:
    """Render one training sequence (without EOS)."""
    return f"{PROMPT_PREFIX} {example.question} {SQL_MARKER} {example.sql}"


def build_prompt(question: str) -> str:
    """Render the inference prompt for a question."""
    return f"{PROMPT_PREFIX} {question} {SQL_MARKER}"


@dataclass
class LMTranslator:
    """A fine-tuned causal LM plus its tokenizer and source workload."""

    model: GPTModel
    tokenizer: Tokenizer
    workload: Text2SQLWorkload

    def translate(
        self,
        question: str,
        constrained: bool = False,
        vet: bool = False,
    ) -> str:
        """Translate a question to linearized SQL tokens.

        With ``vet=True`` the decoded SQL is semantically validated
        against the workload's catalog (tables, columns, types) via
        :func:`repro.analysis.sqlcheck.check_sql` and replaced by ``""``
        when invalid — a cheap post-hoc filter for unconstrained
        decoding, which can emit schema-inconsistent SQL.
        """
        prompt_ids = self.tokenizer.encode(build_prompt(question), add_bos=True).ids
        constraint = (
            SQLGrammarConstraint(self.workload, self.tokenizer, question)
            if constrained
            else None
        )
        config = GenerationConfig(
            max_new_tokens=MAX_NEW_TOKENS,
            strategy="greedy",
            stop_ids=(self.tokenizer.vocab.eos_id,),
        )
        try:
            out_ids = generate(self.model, prompt_ids, config, constraint)
        except Text2SQLError:
            return ""  # constrained decoding dead end: treat as failure
        decoded = self.tokenizer.decode(out_ids)
        if vet and decoded:
            findings = check_sql(
                sql_to_engine_dialect(decoded), self.workload.db.catalog
            )
            if findings:
                return ""  # statically invalid: treat as failure
        return decoded


def register_translator(hub, name: str, translator: LMTranslator) -> str:
    """Expose a fine-tuned translator as a named engine in a model hub.

    Returns the engine name, for symmetry with
    ``ClientTranslator(client, engine=...)``.
    """
    hub.register(name, translator.model, translator.tokenizer)
    return name


@dataclass
class ClientTranslator:
    """Text-to-SQL served over the (possibly unreliable) API channel.

    ``client`` is anything with the ``CompletionClient.complete``
    interface; pass a :class:`~repro.reliability.ResilientClient` to get
    retry/backoff, circuit breaking, and engine fallback for free. When
    the channel still fails terminally — deadline spent, circuit open,
    retries exhausted — translation degrades to ``fallback`` (e.g. the
    rule-based baseline) instead of raising, and ``degraded`` counts how
    often that happened.
    """

    client: object
    engine: str
    workload: Text2SQLWorkload
    max_new_tokens: int = MAX_NEW_TOKENS
    fallback: Optional[Callable[[str], str]] = None

    def __post_init__(self) -> None:
        self.degraded = 0

    def translate(self, question: str) -> str:
        """Translate one question, never raising a serving error."""
        try:
            response = self.client.complete(
                self.engine, build_prompt(question), max_tokens=self.max_new_tokens
            )
        except (TransientError, DeadlineExceededError, CircuitOpenError):
            return self._degrade(question)
        return self._accept(question, response)

    def translate_batch(self, questions: Sequence[str]) -> List[str]:
        """Translate many questions through one batched serving call.

        Clients exposing ``complete_batch`` serve the whole workload in
        vectorized microbatches; anything else transparently degrades to
        a per-question loop — as does a terminal serving failure on the
        batched call, so the no-raise contract of :meth:`translate`
        holds here too.
        """
        questions = list(questions)
        prompts = [build_prompt(question) for question in questions]
        try:
            responses = self.client.complete_batch(
                self.engine, prompts, max_tokens=self.max_new_tokens
            )
        except (TransientError, DeadlineExceededError, CircuitOpenError):
            return [self.translate(question) for question in questions]
        return [
            self._accept(question, response)
            for question, response in zip(questions, responses)
        ]

    def serving_stats(self) -> dict:
        """Prefix-cache / batching counters for this translator's engine.

        Every translated question repeats the same ``q :`` prompt shape,
        so across a sweep the engine's prefix cache absorbs most of the
        prefill; this surfaces those counters for evaluation reports.
        """
        return engine_serving_stats(self.client, self.engine)

    def _accept(self, question: str, response) -> str:
        """Return one completion's text, degrading on untrusted channels."""
        decoded = response.text
        if response.choices[0].finish_reason in ("garbled", "degraded"):
            # A corrupted or baseline-produced completion is not trusted
            # as SQL; fall back rather than execute garbage.
            return self._degrade(question)
        return decoded

    def _degrade(self, question: str) -> str:
        self.degraded += 1
        return self.fallback(question) if self.fallback is not None else ""


def train_translator(
    workload: Text2SQLWorkload,
    train_examples: Sequence[Text2SQLExample],
    steps: int = 250,
    batch_size: int = 16,
    lr: float = 3e-3,
    dim: int = 48,
    num_layers: int = 2,
    seq_len: int = 64,
    seed: int = 0,
) -> LMTranslator:
    """Fine-tune a fresh causal LM on (question, SQL) pairs.

    The loss is applied only to tokens after the ``; sql :`` marker, so
    the model learns to *emit SQL* rather than to model questions.
    """
    if not train_examples:
        raise Text2SQLError("no training examples")
    texts = [linearize_example(ex) for ex in train_examples]
    tokenizer = WhitespaceTokenizer(lowercase=True)
    tokenizer.train(texts, vocab_size=2048)

    config = ModelConfig(
        vocab_size=tokenizer.vocab_size,
        max_seq_len=seq_len,
        dim=dim,
        num_layers=num_layers,
        num_heads=max(2, dim // 16),
        ff_dim=4 * dim,
        causal=True,
    )
    model = GPTModel(config, seed=seed)

    rows, losses_mask = _encode_rows(texts, tokenizer, seq_len)
    rng = SeededRNG(seed)
    optimizer = AdamW(model.parameters(), lr=lr)
    schedule = CosineSchedule(warmup_steps=min(20, steps // 10 + 1), total_steps=steps)

    n = rows.shape[0]
    for step in range(steps):
        idx = rng.generator.choice(n, size=min(batch_size, n), replace=False)
        inputs = rows[idx, :-1]
        targets = rows[idx, 1:].copy()
        mask = losses_mask[idx, 1:]
        targets[~mask] = IGNORE_INDEX
        logits = model(inputs)
        loss = cross_entropy(
            logits.reshape(-1, config.vocab_size),
            targets.reshape(-1),
            ignore_index=IGNORE_INDEX,
        )
        optimizer.zero_grad()
        loss.backward()
        optimizer.clip_grad_norm(1.0)
        optimizer.lr = schedule.lr_at(step, lr)
        optimizer.step()
    return LMTranslator(model=model, tokenizer=tokenizer, workload=workload)


def _encode_rows(
    texts: Sequence[str], tokenizer: Tokenizer, seq_len: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Encode texts to fixed-length rows plus a supervise-here mask.

    The mask is True for SQL tokens (everything after the ``; sql :``
    marker) and the closing EOS, False for the question prefix and padding.
    """
    marker_ids = tokenizer.encode(SQL_MARKER).ids
    rows: List[List[int]] = []
    masks: List[List[bool]] = []
    for text in texts:
        encoding = tokenizer.encode(text, add_bos=True, add_eos=True)
        ids = encoding.ids[:seq_len]
        marker_end = _find_subsequence(ids, marker_ids)
        if marker_end is None:
            raise Text2SQLError(f"marker not found in encoded example: {text!r}")
        mask = [False] * marker_end + [True] * (len(ids) - marker_end)
        pad = seq_len - len(ids)
        rows.append(ids + [tokenizer.vocab.pad_id] * pad)
        masks.append(mask + [False] * pad)
    return np.array(rows, dtype=np.int64), np.array(masks, dtype=bool)


def _find_subsequence(haystack: List[int], needle: List[int]) -> Optional[int]:
    """Index just past the first occurrence of ``needle``, or None."""
    for start in range(len(haystack) - len(needle) + 1):
        if haystack[start: start + len(needle)] == needle:
            return start + len(needle)
    return None
