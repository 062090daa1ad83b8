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

__all__ = ["Loss", "SoftmaxCrossEntropy", "softmax"]

#: Added to the picked probability before its log, so a probability that
#: underflows to zero gives a large finite loss instead of ``inf``.
_EPSILON = 1e-12


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the trailing (class) axis."""
    logits = ensure_float(logits)
    classes = logits.shape[-1]
    # Each row's maximum, reduced over a transposed copy: one vectorised step
    # per class instead of one short reduction per row.  A maximum is exact,
    # so the order changes no bit of the result.
    peak = np.maximum.reduce(logits.reshape(-1, classes).T.copy(), axis=0)
    out = logits - peak.reshape(logits.shape[:-1] + (1,))
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


class Loss(abc.ABC):
    """A differentiable scalar objective on (predictions, targets), as the
    stacked gradient pass takes it: :meth:`per_file_value_and_gradient`, which
    validates the targets once and shares intermediates (the softmax)."""

    @abc.abstractmethod
    def per_file_value_and_gradient(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-file mean losses ``(f,)`` and stacked gradients ``(f, n, ...)``
        w.r.t. predictions with a leading file axis."""


class SoftmaxCrossEntropy(Loss):
    """Softmax + cross entropy on integer class labels.

    ``predictions`` are raw logits of shape ``(batch, classes)``; ``targets``
    are integer labels of shape ``(batch,)`` (stacked: a leading file axis on
    both).  :meth:`value` scores one batch (an evaluation) without a
    gradient; the per-file loss ``i`` of the stacked pass is bit for bit
    :meth:`value` on file ``i``.
    """

    def _checked_softmax(
        self, predictions: np.ndarray, targets: np.ndarray, stacked: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The softmax, its flat view and the index of each sample's label in
        that view (one flat gather reads what an index per axis reads, faster),
        after the shapes and labels are checked."""
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
        classes = predictions.shape[-1]
        if targets.size and (targets.min() < 0 or targets.max() >= classes):
            raise ConfigurationError("target labels out of range for the logits")
        probabilities = softmax(predictions)
        flat = probabilities.reshape(-1)  # a view: the softmax is a fresh contiguous array
        labels = np.arange(0, flat.size, classes) + targets.astype(np.int64, copy=False).ravel()
        return probabilities, flat, labels

    def value(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        """Mean loss over the batch."""
        _, flat, labels = self._checked_softmax(predictions, targets, stacked=False)
        return float(-np.log(flat[labels] + _EPSILON).mean())

    def per_file_value_and_gradient(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        grad, flat, labels = self._checked_softmax(predictions, targets, stacked=True)
        picked = flat[labels]  # one gather, read by the loss and then the gradient
        log_picked = np.log(picked + _EPSILON).reshape(grad.shape[:-1])
        picked -= 1.0
        flat[labels] = picked
        n = grad.shape[-2]
        grad /= n
        # -mean(axis=1) without np.mean's wrapper: its sum, then one division
        losses = np.add.reduce(log_picked, axis=1)
        losses /= -n
        return losses, grad
