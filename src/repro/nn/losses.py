"""Loss functions with analytic gradients.

Losses preserve the working dtype of their inputs: ``float32`` logits give
``float32`` gradients (see :mod:`repro.core.backend`); anything else is
coerced to the backend default, as before.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.backend import ensure_float
from repro.exceptions import ConfigurationError

__all__ = ["Loss", "SoftmaxCrossEntropy", "MeanSquaredError", "softmax"]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the trailing (class) axis."""
    logits = ensure_float(logits)
    out = logits - logits.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


class Loss(abc.ABC):
    """A differentiable scalar objective on (predictions, targets).

    One entry point, :meth:`value_and_gradient`, validates the targets once and
    shares intermediates (the softmax); :meth:`per_file_value_and_gradient` is
    its stacked form, which concrete losses vectorize.
    """

    @abc.abstractmethod
    def value_and_gradient(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Mean loss over the batch and its gradient w.r.t. the predictions."""

    def value(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        """Mean loss over the batch."""
        return self.value_and_gradient(predictions, targets)[0]

    def gradient(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Gradient of the mean loss with respect to the predictions."""
        return self.value_and_gradient(predictions, targets)[1]

    def per_file_value_and_gradient(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-file mean losses ``(f,)`` and stacked gradients ``(f, n, ...)`` of inputs with a
        leading file axis; slice ``i`` is bit-identical to :meth:`value_and_gradient` on file i."""
        pairs = [self.value_and_gradient(p, t) for p, t in zip(predictions, targets)]
        values = np.array([v for v, _ in pairs], dtype=ensure_float(predictions).dtype)
        return values, np.stack([g for _, g in pairs])


class SoftmaxCrossEntropy(Loss):
    """Softmax + cross entropy on integer class labels.

    ``predictions`` are raw logits of shape ``(batch, classes)``; ``targets``
    are integer labels of shape ``(batch,)`` (stacked: a leading file axis on
    both).
    """

    def __init__(self, epsilon: float = 1e-12) -> None:
        self.epsilon = float(epsilon)

    def _log_picked_and_gradient(
        self, predictions: np.ndarray, targets: np.ndarray, stacked: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """``log p[label]`` per sample and the mean loss's gradient: one check, one softmax."""
        predictions = ensure_float(predictions)
        targets = np.asarray(targets)
        layout = "stacked (files, batch" if stacked else "(batch"
        if predictions.ndim != 2 + stacked:
            raise ConfigurationError(
                f"predictions must be {layout}, classes), got shape {predictions.shape}"
            )
        if targets.shape != predictions.shape[:-1]:
            raise ConfigurationError(
                f"targets must be a {layout}) integer label array matching the "
                f"predictions, got shape {targets.shape}"
            )
        if np.any(targets < 0) or np.any(targets >= predictions.shape[-1]):
            raise ConfigurationError("target labels out of range for the logits")
        grad = softmax(predictions)
        labels = (*np.indices(targets.shape, sparse=True), targets.astype(np.int64))
        log_picked = np.log(grad[labels] + self.epsilon)
        grad[labels] -= 1.0
        grad /= targets.shape[-1]
        return log_picked, grad

    def value_and_gradient(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> tuple[float, np.ndarray]:
        log_picked, grad = self._log_picked_and_gradient(predictions, targets, stacked=False)
        return float(-log_picked.mean()), grad

    def per_file_value_and_gradient(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        log_picked, grad = self._log_picked_and_gradient(predictions, targets, stacked=True)
        return -log_picked.mean(axis=1), grad


class MeanSquaredError(Loss):
    """Mean squared error between predictions and real-valued targets."""

    def _residual(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        predictions = ensure_float(predictions)
        # Targets follow the prediction dtype so the residual (and thus the
        # gradient) stays in the model's working dtype.
        targets = np.asarray(targets, dtype=predictions.dtype)
        if predictions.shape != targets.shape:
            raise ConfigurationError(
                f"shape mismatch: predictions {predictions.shape} vs targets {targets.shape}"
            )
        return predictions - targets

    def value_and_gradient(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> tuple[float, np.ndarray]:
        residual = self._residual(predictions, targets)
        value = float((residual**2).mean())
        residual *= 2.0
        residual /= residual.size
        return value, residual

    def per_file_value_and_gradient(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        residual = self._residual(predictions, targets)
        values = (residual**2).mean(axis=tuple(range(1, residual.ndim)))
        residual *= 2.0
        residual /= residual[0].size
        return values, residual
