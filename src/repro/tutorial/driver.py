"""Table 1 of the paper, made executable.

The paper's only table is the tutorial organization: seven parts with
durations summing to 90 minutes. This module reproduces the table — and
goes one step further: each part is bound to a **live demonstration**
drawn from the corresponding subsystem of this library, so
:func:`run_tutorial` actually *performs* the tutorial end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.utils.rng import SeededRNG


@dataclass(frozen=True)
class TutorialPart:
    """One row of Table 1: a tutorial section with its time budget."""

    title: str
    duration_minutes: int
    demo: Optional[Callable[[int], str]] = None


# -- the per-part demonstrations -------------------------------------------
def _demo_welcome(seed: int) -> str:
    return "Welcome to LM4DB: language models for data management."


def _demo_transformer(seed: int) -> str:
    import numpy as np

    from repro.autograd import Tensor
    from repro.nn import MultiHeadAttention

    attention = MultiHeadAttention(16, 2, SeededRNG(seed), causal=True)
    attention(Tensor(SeededRNG(seed).normal((1, 5, 16))))
    weights = attention.last_attention
    return (
        "Causal self-attention over 5 positions; upper triangle is masked: "
        f"max future weight = {weights[0, 0][np.triu_indices(5, 1)].max():.1e}"
    )


def _demo_pretraining(seed: int) -> str:
    from repro.models import GPTModel, ModelConfig
    from repro.tokenizers import WhitespaceTokenizer
    from repro.training import pretrain_clm
    from repro.utils.corpus import synthetic_db_corpus

    corpus = synthetic_db_corpus(num_docs=30, seed=seed)
    tokenizer = WhitespaceTokenizer(lowercase=True)
    tokenizer.train(corpus, vocab_size=256)
    model = GPTModel(ModelConfig.tiny(vocab_size=tokenizer.vocab_size), seed=seed)
    report = pretrain_clm(model, tokenizer, corpus, steps=25, seed=seed)
    return (
        f"Causal pre-training, 25 steps: loss "
        f"{report.losses[0]:.2f} -> {report.losses[-1]:.2f}"
    )


def _demo_prompting(seed: int) -> str:
    from repro.prompting import FewShotPrompt, PromptTemplate

    prompt = FewShotPrompt(
        PromptTemplate("Review: {text}"), instructions="Classify the sentiment."
    )
    prompt.add_example("positive", text="great product")
    rendered = prompt.build(text="broke after a day")
    return f"A 1-shot prompt has {len(rendered.splitlines())} lines; ends with 'Answer:'"


def _demo_apis(seed: int) -> str:
    from repro.api import CompletionClient, bootstrap_hub

    hub = bootstrap_hub(seed=seed, steps=20, corpus_docs=30)
    client = CompletionClient(hub)
    response = client.complete("tiny-gpt", "the database", max_tokens=4)
    return (
        f"OpenAI-style API: engine=tiny-gpt, completion={response.text!r}, "
        f"usage={response.usage.total_tokens} tokens"
    )


def _demo_applications(seed: int) -> str:
    from repro.text2sql import RuleBasedTranslator, generate_workload

    workload = generate_workload(seed=seed, examples_per_template=1)
    translator = RuleBasedTranslator(workload)
    question = f"how many {workload.entity_table} are there"
    return f"text-to-SQL: {question!r} -> {translator.translate(question)!r}"


def _demo_conclusion(seed: int) -> str:
    return "Questions and discussion — see EXPERIMENTS.md for every result."


# Table 1 of the paper, verbatim titles and durations.
TUTORIAL_PARTS: List[TutorialPart] = [
    TutorialPart("Welcome and introduction", 5, _demo_welcome),
    TutorialPart("Rise of the Transformer", 10, _demo_transformer),
    TutorialPart("Pre-trained language models", 10, _demo_pretraining),
    TutorialPart("Fine-tuning and prompting", 10, _demo_prompting),
    TutorialPart("APIs and libraries", 20, _demo_apis),
    TutorialPart("Applications in data management", 25, _demo_applications),
    TutorialPart("Final discussion and conclusion", 10, _demo_conclusion),
]


def total_duration_minutes() -> int:
    """Sum of the durations (the paper's total is 90 minutes)."""
    return sum(part.duration_minutes for part in TUTORIAL_PARTS)


def render_table1() -> str:
    """Render Table 1 as the paper prints it."""
    width = max(len(p.title) for p in TUTORIAL_PARTS) + 2
    lines = ["Table 1: Tutorial organization overview.", ""]
    lines.append(f"{'Part':<{width}}| Duration")
    lines.append("-" * (width + 10))
    for part in TUTORIAL_PARTS:
        lines.append(f"{part.title:<{width}}| {part.duration_minutes} min")
    return "\n".join(lines)


def run_tutorial(seed: int = 0) -> Dict[str, str]:
    """Execute every part's live demo; return part title -> demo output."""
    outputs: Dict[str, str] = {}
    for part in TUTORIAL_PARTS:
        outputs[part.title] = part.demo(seed) if part.demo else ""
    return outputs
