"""Beam search decoding (length-normalized log-probability scoring)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.autograd import no_grad
from repro.errors import GenerationError
from repro.generation.decoding import TokenConstraint
from repro.models.gpt import GPTModel


@dataclass
class _Beam:
    ids: List[int]          # newly generated ids only
    log_prob: float
    finished: bool = False

    def score(self, length_penalty: float) -> float:
        length = max(len(self.ids), 1)
        return self.log_prob / (length**length_penalty)


def beam_search(
    model: GPTModel,
    prompt_ids: Sequence[int],
    num_beams: int = 4,
    max_new_tokens: int = 32,
    stop_ids: Sequence[int] = (),
    length_penalty: float = 0.7,
    constraint: Optional[TokenConstraint] = None,
) -> List[int]:
    """Return the best generated id sequence by beam search.

    Beams that emit a stop token are frozen; search ends when every beam
    is finished or the token budget is exhausted.
    """
    if num_beams <= 0:
        raise GenerationError("num_beams must be positive")
    if not prompt_ids:
        raise GenerationError("prompt must contain at least one token")
    stop_set = set(stop_ids)
    beams = [_Beam(ids=[], log_prob=0.0)]

    for _ in range(max_new_tokens):
        if all(b.finished for b in beams):
            break
        candidates: List[_Beam] = []
        for beam in beams:
            if beam.finished:
                candidates.append(beam)
                continue
            window = (list(prompt_ids) + beam.ids)[-model.config.max_seq_len:]
            with no_grad():
                logits = model(np.array([window], dtype=np.int64))
            log_probs = _log_softmax(logits.data[0, -1])

            allowed: Optional[Sequence[int]] = None
            if constraint is not None:
                allowed = constraint.allowed_tokens(beam.ids)
                if allowed is not None and len(allowed) == 0:
                    beam.finished = True
                    candidates.append(beam)
                    continue
            if allowed is not None:
                pool = np.asarray(list(allowed), dtype=np.int64)
            else:
                pool = np.argsort(-log_probs)[: num_beams * 2]

            ranked = pool[np.argsort(-log_probs[pool])][: num_beams * 2]
            for token in ranked:
                token = int(token)
                new_beam = _Beam(
                    ids=beam.ids + [token],
                    log_prob=beam.log_prob + float(log_probs[token]),
                    finished=token in stop_set,
                )
                if new_beam.finished:
                    new_beam.ids = new_beam.ids[:-1]  # drop the stop token
                candidates.append(new_beam)
        candidates.sort(key=lambda b: -b.score(length_penalty))
        beams = candidates[:num_beams]

    best = max(beams, key=lambda b: b.score(length_penalty))
    return best.ids


def _log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max()
    return shifted - np.log(np.exp(shifted).sum())
