"""Evaluation metrics: accuracy, F1, perplexity."""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.errors import TrainingError


def accuracy(predictions: Sequence[int], labels: Sequence[int]) -> float:
    """Fraction of positions where prediction equals label."""
    preds = np.asarray(predictions)
    labs = np.asarray(labels)
    if preds.shape != labs.shape:
        raise TrainingError(
            f"shape mismatch: predictions {preds.shape} vs labels {labs.shape}"
        )
    if preds.size == 0:
        raise TrainingError("accuracy of zero examples is undefined")
    return float((preds == labs).mean())


def precision_recall_f1(
    predictions: Sequence[int], labels: Sequence[int]
) -> Tuple[float, float, float]:
    """Binary precision/recall/F1 with class 1 as the positive class."""
    preds = np.asarray(predictions)
    labs = np.asarray(labels)
    tp = int(((preds == 1) & (labs == 1)).sum())
    fp = int(((preds == 1) & (labs != 1)).sum())
    fn = int(((preds != 1) & (labs == 1)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def f1_score(predictions: Sequence[int], labels: Sequence[int]) -> float:
    """Binary F1 (harmonic mean of precision and recall)."""
    return precision_recall_f1(predictions, labels)[2]


def perplexity(mean_nll: float) -> float:
    """Perplexity from a mean negative log-likelihood (nats/token)."""
    if mean_nll < 0:
        raise TrainingError(f"mean NLL cannot be negative, got {mean_nll}")
    return math.exp(min(mean_nll, 700.0))
