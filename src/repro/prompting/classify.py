"""Classification by label-likelihood scoring (zero/few-shot prompting).

Rather than parsing free-form completions, the classifier computes the
model's log-probability of each label verbalization continuing the
prompt and predicts the argmax — the robust reading of "prompting for
classification" that works for any model size.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.autograd import no_grad
from repro.errors import PromptError
from repro.models.gpt import GPTModel
from repro.prompting.fewshot import FewShotPrompt
from repro.tokenizers import Tokenizer


def score_continuation(
    model: GPTModel, tokenizer: Tokenizer, prompt: str, continuation: str
) -> float:
    """Total log-probability of ``continuation`` following ``prompt``."""
    prompt_ids = tokenizer.encode(prompt, add_bos=True).ids
    continuation_ids = tokenizer.encode(" " + continuation).ids
    if not continuation_ids:
        raise PromptError(f"continuation {continuation!r} tokenized to nothing")
    full = (prompt_ids + continuation_ids)[-model.config.max_seq_len:]
    boundary = len(full) - len(continuation_ids)
    with no_grad():
        logits = model(np.array([full], dtype=np.int64))
    log_probs = _log_softmax_rows(logits.data[0])
    total = 0.0
    for position in range(boundary, len(full)):
        token = full[position]
        total += float(log_probs[position - 1, token])
    return total


def _log_softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


class PromptClassifier:
    """Few-shot text classifier driven by a causal LM.

    Args:
        model: a (pre-trained) GPT-style model.
        tokenizer: the tokenizer the model was trained with.
        prompt: a :class:`FewShotPrompt` describing the task.
        verbalizers: mapping from class index to the label word the
            model should find likely (e.g. ``{0: "no", 1: "yes"}``).
    """

    CONTENT_FREE_INPUT = "n/a"

    def __init__(
        self,
        model: GPTModel,
        tokenizer: Tokenizer,
        prompt: FewShotPrompt,
        verbalizers: Dict[int, str],
    ) -> None:
        if len(verbalizers) < 2:
            raise PromptError("need at least two classes to classify")
        self.model = model
        self.tokenizer = tokenizer
        self.prompt = prompt
        self.verbalizers = dict(verbalizers)
        self._bias: Dict[int, float] = {}

    def scores(self, max_shots: Optional[int] = None, **query_inputs: str) -> Dict[int, float]:
        """Return per-class log-probability scores for one input.

        If :meth:`calibrate` has run, the content-free bias is
        subtracted from each class score.
        """
        rendered = self.prompt.build(max_shots=max_shots, **query_inputs)
        return {
            label: score_continuation(self.model, self.tokenizer, rendered, word)
            - self._bias.get(label, 0.0)
            for label, word in self.verbalizers.items()
        }

    def predict(self, max_shots: Optional[int] = None, **query_inputs: str) -> int:
        """Return the most likely class index for one input."""
        scores = self.scores(max_shots=max_shots, **query_inputs)
        return max(scores, key=lambda k: scores[k])

    def calibrate(self) -> Dict[int, float]:
        """Contextual calibration (Zhao et al., 2021).

        Few-shot classifiers inherit a label bias from the prompt (word
        frequency, example order). Scoring a *content-free* input
        estimates that bias per class; subtracting it re-centers the
        decision. Returns the estimated bias and enables it for all
        subsequent :meth:`scores`/:meth:`predict` calls.
        """
        self._bias = {}
        fields = self.prompt.template.fields
        neutral = {field: self.CONTENT_FREE_INPUT for field in fields}
        rendered = self.prompt.build(**neutral)
        self._bias = {
            label: score_continuation(self.model, self.tokenizer, rendered, word)
            for label, word in self.verbalizers.items()
        }
        # Center the bias so calibration never changes score magnitudes
        # wholesale, only their balance.
        mean_bias = sum(self._bias.values()) / len(self._bias)
        self._bias = {k: v - mean_bias for k, v in self._bias.items()}
        return dict(self._bias)

    @property
    def is_calibrated(self) -> bool:
        return bool(self._bias)
