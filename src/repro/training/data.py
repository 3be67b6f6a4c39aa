"""Dataset utilities: corpus packing, MLM/CLM batch construction, splits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import TrainingError
from repro.tokenizers import Tokenizer
from repro.utils.rng import SeededRNG

IGNORE_INDEX = -100


@dataclass(frozen=True)
class LabeledExample:
    """One supervised example for classification fine-tuning."""

    text: str
    label: int


def pack_corpus(
    tokenizer: Tokenizer, corpus: Sequence[str], seq_len: int
) -> np.ndarray:
    """Tokenize documents and pack them into fixed-length rows.

    Documents are concatenated with ``[EOS]`` separators and chopped into
    rows of ``seq_len`` ids — the standard pre-training data layout.
    Returns an int64 array of shape (num_rows, seq_len).
    """
    stream: List[int] = []
    for doc in corpus:
        stream.extend(tokenizer.encode(doc, add_eos=True).ids)
    num_rows = len(stream) // seq_len
    if num_rows == 0:
        raise TrainingError(
            f"corpus too small: {len(stream)} tokens < seq_len {seq_len}"
        )
    return np.array(stream[: num_rows * seq_len], dtype=np.int64).reshape(
        num_rows, seq_len
    )


def make_mlm_batch(
    rows: np.ndarray,
    tokenizer: Tokenizer,
    rng: SeededRNG,
) -> Tuple[np.ndarray, np.ndarray]:
    """Apply BERT's masking recipe to ``rows``.

    15% of positions are selected; of those, 80% become ``[MASK]``, 10%
    a random token, 10% stay unchanged. Labels hold the original id at
    selected positions and ``IGNORE_INDEX`` elsewhere.
    """
    vocab = tokenizer.vocab
    inputs = rows.copy()
    labels = np.full_like(rows, IGNORE_INDEX)
    gen = rng.generator
    selected = gen.random(rows.shape) < 0.15
    special = np.isin(rows, vocab.special_ids())
    selected &= ~special
    if not selected.any():
        # Guarantee at least one supervised position per batch.
        r, c = 0, int(np.argmax(~special[0]))
        selected[r, c] = True
    labels[selected] = rows[selected]

    action = gen.random(rows.shape)
    mask_positions = selected & (action < 0.8)
    random_positions = selected & (action >= 0.8) & (action < 0.9)
    inputs[mask_positions] = vocab.mask_id
    inputs[random_positions] = gen.integers(
        len(vocab.special_ids()), len(vocab), size=int(random_positions.sum())
    )
    return inputs, labels


def make_clm_batch(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Shift rows for causal LM training: predict token t+1 from prefix t."""
    if rows.shape[1] < 2:
        raise TrainingError("causal LM rows need length >= 2")
    return rows[:, :-1], rows[:, 1:]


def train_test_split(
    items: Sequence, test_fraction: float, rng: SeededRNG
) -> Tuple[list, list]:
    """Shuffle and split a sequence into (train, test) lists."""
    if not 0.0 < test_fraction < 1.0:
        raise TrainingError(f"test_fraction must be in (0, 1), got {test_fraction}")
    shuffled = rng.shuffled(list(items))
    cut = max(1, int(len(shuffled) * test_fraction))
    if cut >= len(shuffled):
        raise TrainingError("split leaves no training data")
    return shuffled[cut:], shuffled[:cut]


def iterate_minibatches(
    rows: np.ndarray, batch_size: int, rng: SeededRNG
):
    """Yield shuffled minibatches of rows, indefinitely."""
    n = rows.shape[0]
    while True:
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start: start + batch_size]
            if len(idx) == 0:
                continue
            yield rows[idx]
