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
        Files the graph predicts the Byzantine workers out-vote this round:
        ``distorted_files(assignment, byzantine)``, the files on which they
        hold a majority of the copies.  What the vote actually returned is
        the trace's ``RoundTrace.realised_distorted``.
    file_losses:
        Per-file training loss (file order).
    arrivals:
        ``(f, r)`` simulated arrival time of each message (``inf`` = never
        sent).
    accepted:
        ``(f, r)`` bool mask of the messages the PS accepted before its
        deadline/quorum cutoff: the copies the vote counts.
    mean_file_loss:
        Average training loss over the round's files.
    fault_events:
        Benign faults injected this round (stragglers, dropout, corruption),
        plus the event runtime's ``"late"`` rejections.
    round_time:
        Simulated round duration in seconds: the event engine's clock at
        round close (last quorum-satisfying arrival, else the deadline; see
        :mod:`repro.cluster.events`).
    """

    vote_tensor: VoteTensor
    honest_matrix: np.ndarray
    byzantine_workers: tuple[int, ...]
    distorted_files: tuple[int, ...]
    file_losses: np.ndarray
    arrivals: np.ndarray
    accepted: np.ndarray
    mean_file_loss: float = float("nan")
    fault_events: tuple[FaultEvent, ...] = ()
    round_time: float = 0.0

    @property
    def distortion_fraction(self) -> float:
        """The graph's predicted ``ε̂`` of the round: :attr:`distorted_files`
        over the total files.  Not what the vote realised — see
        ``RoundTrace.realised_distorted`` in the scenario trace."""
        total = self.vote_tensor.num_files
        return len(self.distorted_files) / total if total else 0.0
