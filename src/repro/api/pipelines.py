"""Task pipelines: the local-library access channel (HuggingFace style).

``pipeline(task, model, tokenizer)`` returns a callable specialized for
the task, hiding tokenization and decoding — the exact usage pattern the
tutorial demonstrates for the Transformers library.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.autograd import no_grad
from repro.errors import ModelError
from repro.generation import GenerationConfig, generate_text
from repro.models import BERTModel, GPTModel, SequenceClassifier
from repro.tokenizers import Tokenizer
from repro.tokenizers.vocab import MASK


class Pipeline(ABC):
    """Base pipeline: a callable bound to a model + tokenizer."""

    task: str = ""

    def __init__(self, tokenizer: Tokenizer) -> None:
        self.tokenizer = tokenizer

    @abstractmethod
    def __call__(self, *args: object, **kwargs: object) -> object:
        """Run the task."""


class TextGenerationPipeline(Pipeline):
    """Complete a text prefix with a causal LM (greedy decoding)."""

    task = "text-generation"

    def __init__(self, model: GPTModel, tokenizer: Tokenizer) -> None:
        super().__init__(tokenizer)
        self.model = model

    def __call__(self, prompt: str, max_new_tokens: int = 16) -> str:
        config = GenerationConfig(max_new_tokens=max_new_tokens)
        return generate_text(self.model, self.tokenizer, prompt, config)


@dataclass(frozen=True)
class MaskFill:
    """One fill-mask candidate."""

    token: str
    score: float
    sequence: str


class FillMaskPipeline(Pipeline):
    """Fill ``[MASK]`` positions with a BERT-style model."""

    task = "fill-mask"

    def __init__(self, model: BERTModel, tokenizer: Tokenizer) -> None:
        super().__init__(tokenizer)
        self.model = model

    def __call__(self, text: str, top_k: int = 5) -> List[MaskFill]:
        mask_token = MASK
        if mask_token not in text:
            raise ModelError(f"input must contain the mask token {mask_token!r}")
        # Tokenize around the mask so it survives as a single token.
        before, _, after = text.partition(mask_token)
        ids = (
            self.tokenizer.encode(before).ids
            + [self.tokenizer.vocab.mask_id]
            + self.tokenizer.encode(after).ids
        )
        mask_position = len(self.tokenizer.encode(before).ids)
        with no_grad():
            logits = self.model(np.array([ids], dtype=np.int64))
        row = logits.data[0, mask_position]
        probs = np.exp(row - row.max())
        probs = probs / probs.sum()
        ranked = np.argsort(-probs)[:top_k]
        results = []
        for token_id in ranked:
            token = self.tokenizer.vocab.token_of(int(token_id))
            filled = text.replace(mask_token, token)
            results.append(
                MaskFill(token=token, score=float(probs[token_id]), sequence=filled)
            )
        return results


class TextClassificationPipeline(Pipeline):
    """Classify text with a fine-tuned :class:`SequenceClassifier`."""

    task = "text-classification"

    def __init__(
        self,
        classifier: SequenceClassifier,
        tokenizer: Tokenizer,
        labels: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(tokenizer)
        self.classifier = classifier
        self.labels = list(labels) if labels else [
            f"LABEL_{i}" for i in range(classifier.num_classes)
        ]
        if len(self.labels) != classifier.num_classes:
            raise ModelError(
                f"{len(self.labels)} labels for {classifier.num_classes} classes"
            )

    def __call__(self, text: str) -> Dict[str, Union[str, float]]:
        max_len = self.classifier.backbone.config.max_seq_len
        enc = self.tokenizer.encode(text, max_length=max_len)
        with no_grad():
            logits = self.classifier(np.array([enc.ids], dtype=np.int64))
        row = logits.data[0]
        probs = np.exp(row - row.max())
        probs = probs / probs.sum()
        best = int(np.argmax(probs))
        return {"label": self.labels[best], "score": float(probs[best])}


class FeatureExtractionPipeline(Pipeline):
    """Produce sentence embeddings from a BERT-style encoder."""

    task = "feature-extraction"

    def __init__(self, model: BERTModel, tokenizer: Tokenizer) -> None:
        super().__init__(tokenizer)
        self.model = model

    def __call__(self, texts: Union[str, Sequence[str]]) -> np.ndarray:
        if isinstance(texts, str):
            texts = [texts]
        max_len = self.model.config.max_seq_len
        width = max(
            min(len(self.tokenizer.encode(t).ids), max_len) for t in texts
        )
        width = max(width, 1)
        encodings = [
            self.tokenizer.encode(t, max_length=width, pad_to=width) for t in texts
        ]
        ids = np.array([e.ids for e in encodings], dtype=np.int64)
        mask = np.array([e.attention_mask for e in encodings], dtype=np.int64)
        return self.model.embed_texts(ids, mask)


_TASKS = {
    "text-generation": (TextGenerationPipeline, GPTModel),
    "fill-mask": (FillMaskPipeline, BERTModel),
    "feature-extraction": (FeatureExtractionPipeline, BERTModel),
}


def pipeline(task: str, model: object, tokenizer: Tokenizer, **kwargs: object) -> Pipeline:
    """Instantiate a task pipeline (HuggingFace-style factory).

    Supported tasks: ``text-generation``, ``fill-mask``,
    ``feature-extraction``, and ``text-classification`` (which expects a
    :class:`SequenceClassifier` as the model).
    """
    if task == "text-classification":
        if not isinstance(model, SequenceClassifier):
            raise ModelError("text-classification expects a SequenceClassifier")
        return TextClassificationPipeline(model, tokenizer, **kwargs)
    try:
        pipeline_cls, expected = _TASKS[task]
    except KeyError:
        raise ModelError(
            f"unknown task {task!r}; supported: "
            f"{sorted(_TASKS) + ['text-classification']}"
        ) from None
    if not isinstance(model, expected):
        raise ModelError(
            f"task {task!r} expects a {expected.__name__}, got {type(model).__name__}"
        )
    return pipeline_cls(model, tokenizer, **kwargs)
