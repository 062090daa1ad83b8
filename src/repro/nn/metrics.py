"""Evaluation metrics: top-1 accuracy and mean cross-entropy loss."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.models import Sequential

__all__ = ["top1_accuracy", "cross_entropy_loss", "evaluate_model"]

#: Samples per forward pass of :func:`evaluate_model`.
_EVAL_BATCH = 256


def top1_accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose arg-max logit matches the integer label."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.ndim != 1 or logits.shape[0] != labels.shape[0]:
        raise ConfigurationError(
            f"incompatible shapes: logits {logits.shape}, labels {labels.shape}"
        )
    predictions = logits.argmax(axis=1)
    return float((predictions == labels).mean())


def cross_entropy_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross entropy of the logits against integer labels."""
    return SoftmaxCrossEntropy().value(logits, labels)


def evaluate_model(
    model: Sequential, inputs: np.ndarray, labels: np.ndarray
) -> dict[str, float]:
    """Evaluate accuracy and loss over a dataset in mini-batches of 256
    samples (:data:`_EVAL_BATCH`), by the model's plain forward pass, which
    leaves nothing on the layers."""
    n = inputs.shape[0]
    if n == 0:
        raise ConfigurationError("cannot evaluate on an empty dataset")
    correct = 0.0
    total_loss = 0.0
    for start in range(0, n, _EVAL_BATCH):
        stop = min(start + _EVAL_BATCH, n)
        logits = model.forward(inputs[start:stop])
        batch_labels = labels[start:stop]
        correct += top1_accuracy(logits, batch_labels) * (stop - start)
        total_loss += cross_entropy_loss(logits, batch_labels) * (stop - start)
    return {"accuracy": correct / n, "loss": total_loss / n}
