"""Training history: the per-iteration records behind the paper's figures."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.backend import DEFAULT_DTYPE
from repro.exceptions import TrainingError

__all__ = ["IterationRecord", "TrainingHistory"]


@dataclass(frozen=True)
class IterationRecord:
    """Metrics of a single training iteration.

    Attributes
    ----------
    iteration:
        Zero-based iteration index.
    train_loss:
        Mean loss over the iteration's files (honest view).
    distortion_fraction:
        Realized fraction of corrupted file majorities this iteration.
    test_accuracy:
        Top-1 test accuracy, when evaluated this iteration (NaN otherwise).
    test_loss:
        Test loss, when evaluated this iteration (NaN otherwise).
    learning_rate:
        Learning rate used for the update.
    """

    iteration: int
    train_loss: float
    distortion_fraction: float
    test_accuracy: float = float("nan")
    test_loss: float = float("nan")
    learning_rate: float = float("nan")


@dataclass
class TrainingHistory:
    """Accumulates per-iteration records and exposes the plotted series."""

    label: str = "run"
    records: list[IterationRecord] = field(default_factory=list)

    def append(self, record: IterationRecord) -> None:
        """Add one iteration's record (iterations must be appended in order)."""
        if self.records and record.iteration <= self.records[-1].iteration:
            raise TrainingError(
                "iteration records must be appended in strictly increasing order"
            )
        self.records.append(record)

    # -- series accessors -----------------------------------------------------
    @property
    def train_losses(self) -> np.ndarray:
        """Training loss per iteration."""
        return np.array([r.train_loss for r in self.records], dtype=DEFAULT_DTYPE)

    @property
    def distortion_fractions(self) -> np.ndarray:
        """Realized distortion fraction per iteration."""
        return np.array([r.distortion_fraction for r in self.records], dtype=DEFAULT_DTYPE)

    def accuracy_series(self) -> tuple[np.ndarray, np.ndarray]:
        """``(iterations, accuracies)`` restricted to evaluated iterations.

        This is the series plotted in the paper's Figures 2–11 (top-1 test
        accuracy versus iteration).
        """
        points = [
            (r.iteration, r.test_accuracy)
            for r in self.records
            if not np.isnan(r.test_accuracy)
        ]
        if not points:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=DEFAULT_DTYPE)
        iterations, accuracies = zip(*points)
        return np.array(iterations, dtype=np.int64), np.array(accuracies, dtype=DEFAULT_DTYPE)

    @property
    def final_accuracy(self) -> float:
        """Last recorded test accuracy (NaN if never evaluated)."""
        _, accuracies = self.accuracy_series()
        return float(accuracies[-1]) if accuracies.size else float("nan")

    @property
    def best_accuracy(self) -> float:
        """Best recorded test accuracy (NaN if never evaluated)."""
        _, accuracies = self.accuracy_series()
        return float(accuracies.max()) if accuracies.size else float("nan")

    def mean_accuracy(self, last_k: int | None = None) -> float:
        """Mean of the recorded accuracies (optionally only the last ``last_k``)."""
        _, accuracies = self.accuracy_series()
        if accuracies.size == 0:
            return float("nan")
        if last_k is not None:
            accuracies = accuracies[-last_k:]
        return float(accuracies.mean())

    def summary(self) -> dict[str, float]:
        """Compact summary used by the experiment reports."""
        return {
            "iterations": int(self.records[-1].iteration + 1) if self.records else 0,
            "final_accuracy": self.final_accuracy,
            "best_accuracy": self.best_accuracy,
            "final_train_loss": float(self.train_losses[-1]) if self.records else float("nan"),
            "mean_distortion": float(self.distortion_fractions.mean()) if self.records else 0.0,
        }

    def __len__(self) -> int:
        return len(self.records)
