"""D2.1 — Rise of the Transformer: attention vs recurrence.

The tutorial motivates the Transformer by its advantage over recurrent
networks [43]. We train a causal Transformer and an Elman RNN of
comparable size on a long-range copy task (recall tokens emitted many
positions earlier) and compare next-token accuracy on the copied half.

Expected shape: the Transformer's copy accuracy is far higher — the
attention mechanism reads the distant prefix directly, the RNN must
squeeze it through a fixed-size state.
"""

import numpy as np
import pytest

from repro.autograd import cross_entropy, no_grad
from repro.models import GPTModel, ModelConfig, RecurrentLM
from repro.tokenizers import WhitespaceTokenizer
from repro.training.data import pack_corpus
from repro.training.optim import AdamW
from repro.utils.corpus import copy_task_corpus
from repro.utils.rng import SeededRNG


def train_lm(model, rows, steps, seed, lr=3e-3):
    rng = SeededRNG(seed)
    optimizer = AdamW(model.parameters(), lr=lr)
    for _ in range(steps):
        idx = rng.generator.choice(rows.shape[0], size=16, replace=False)
        inputs, targets = rows[idx, :-1], rows[idx, 1:]
        logits = model(inputs)
        loss = cross_entropy(
            logits.reshape(-1, model.config.vocab_size), targets.reshape(-1)
        )
        optimizer.zero_grad()
        loss.backward()
        optimizer.clip_grad_norm(1.0)
        optimizer.step()
    return model


def copy_accuracy(model, rows, copy_start):
    """Accuracy of predicting the copied half (positions >= copy_start)."""
    inputs, targets = rows[:, :-1], rows[:, 1:]
    with no_grad():
        logits = model(inputs)
    predictions = logits.data.argmax(axis=-1)
    region = slice(copy_start, None)
    return float((predictions[:, region] == targets[:, region]).mean())


@pytest.fixture(scope="module")
def setup():
    corpus = copy_task_corpus(num_docs=220, vocab=10, length=5, seed=13)
    tokenizer = WhitespaceTokenizer()
    tokenizer.train(corpus, vocab_size=64)
    seq_len = len(tokenizer.encode(corpus[0], add_eos=True).ids)
    rows = pack_corpus(tokenizer, corpus, seq_len)
    config = ModelConfig(
        vocab_size=tokenizer.vocab_size, max_seq_len=seq_len, dim=32,
        num_layers=2, num_heads=2, ff_dim=64, causal=True,
    )
    transformer = train_lm(GPTModel(config, seed=0), rows, steps=120, seed=0)
    rnn = train_lm(RecurrentLM(config, seed=0), rows, steps=120, seed=0)
    test_rows = pack_corpus(
        tokenizer, copy_task_corpus(num_docs=40, vocab=10, length=5, seed=99), seq_len
    )
    copy_start = 5  # after "a b c d e copy", predictions must recall the prefix
    return transformer, rnn, test_rows, copy_start


def test_bench_transformer_vs_rnn(benchmark, report_printer, setup):
    transformer, rnn, test_rows, copy_start = setup
    transformer_acc = benchmark(copy_accuracy, transformer, test_rows, copy_start)
    rnn_acc = copy_accuracy(rnn, test_rows, copy_start)

    report_printer(
        "D2.1: long-range copy task — attention vs recurrence",
        [
            f"{'model':<22}{'params':>10}{'copy accuracy':>16}",
            f"{'Transformer (causal)':<22}{transformer.num_parameters():>10,}{transformer_acc:>16.3f}",
            f"{'Elman RNN':<22}{rnn.num_parameters():>10,}{rnn_acc:>16.3f}",
            "",
            f"advantage: {transformer_acc - rnn_acc:+.3f} absolute accuracy",
        ],
    )
    assert transformer_acc > rnn_acc + 0.1
    assert transformer_acc > 0.5
