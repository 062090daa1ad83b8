"""What one simulated round hands from the workers to the parameter server."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.faults import FaultEvent
from repro.core.vote_tensor import VoteTensor

__all__ = ["TensorRoundResult"]


@dataclass
class TensorRoundResult:
    """Everything produced by one simulated training round.

    Carries the packed ``(f, r, d)`` :class:`VoteTensor` the PS aggregates,
    plus the ground truth the experiments need: the ``(f, d)`` honest
    gradient matrix, the ``(f,)`` loss vector and the realized distortion.

    Attributes
    ----------
    vote_tensor:
        The PS-side view of the returns (attacked slots already overwritten).
    honest_matrix:
        True per-file gradients stacked in file order (ground truth).
    byzantine_workers:
        The compromised workers of this round.
    distorted_files:
        Files whose majority vote is corrupted this round.
    file_losses:
        Per-file training loss (file order).
    mean_file_loss:
        Average training loss over the round's files.
    fault_events:
        Benign faults injected this round (stragglers, dropout, corruption),
        plus the event runtime's ``"late"`` rejections.
    round_time:
        Simulated round duration in seconds.  Synchronous rounds take the
        slowest surviving worker (0 when no straggler model is active);
        event-driven rounds report the engine clock at round close (last
        quorum-satisfying arrival, else the deadline).
    arrivals:
        Event runtime only: ``(f, r)`` simulated arrival time of each
        message (``inf`` = never sent); ``None`` on the synchronous path.
    accepted:
        Event runtime only: ``(f, r)`` bool mask of the messages the PS
        accepted before its deadline/quorum cutoff; ``None`` otherwise.
    aggregation_mask:
        The mask the aggregation pipelines should apply — ``accepted`` when
        the runtime's *partial* mode is on, else ``None`` (missing slots
        then vote as zeros, the synchronous convention).
    """

    vote_tensor: VoteTensor
    honest_matrix: np.ndarray
    byzantine_workers: tuple[int, ...]
    distorted_files: tuple[int, ...]
    file_losses: np.ndarray
    mean_file_loss: float = float("nan")
    fault_events: tuple[FaultEvent, ...] = ()
    round_time: float = 0.0
    arrivals: np.ndarray | None = None
    accepted: np.ndarray | None = None
    aggregation_mask: np.ndarray | None = None

    @property
    def distortion_fraction(self) -> float:
        """Realized ``ε̂`` of the round (corrupted files / total files)."""
        total = self.vote_tensor.num_files
        return len(self.distorted_files) / total if total else 0.0
