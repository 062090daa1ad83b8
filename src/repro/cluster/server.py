"""The parameter server: aggregation pipeline + optimizer step.

The PS owns the global model parameters, feeds each round's returns through
its aggregation pipeline (ByzShield, DETOX, DRACO or a vanilla robust rule)
and applies an SGD step with the configured learning-rate schedule (paper
Algorithm 1, lines 14–17).
"""

from __future__ import annotations

import numpy as np

from repro.core.backend import ensure_float
from repro.core.pipelines import AggregationPipeline, RoundOutcome
from repro.core.vote_tensor import VoteTensor
from repro.exceptions import TrainingError
from repro.nn.optim import SGD
from repro.utils.digest import array_digest

__all__ = ["ParameterServer"]


class ParameterServer:
    """Holds the global parameter vector and performs model updates.

    Parameters
    ----------
    initial_params:
        The initial flat parameter vector ``w₀``.
    pipeline:
        Aggregation pipeline turning a round's returns into one gradient.
    optimizer:
        Flat-vector SGD optimizer (learning-rate schedule + momentum).
    """

    def __init__(
        self,
        initial_params: np.ndarray,
        pipeline: AggregationPipeline,
        optimizer: SGD,
    ) -> None:
        # Keep the model's working dtype (float32 stays float32) so the PS
        # update runs in the same precision as the workers' backward passes.
        params = ensure_float(initial_params).ravel()
        if params.size == 0:
            raise TrainingError("initial parameter vector is empty")
        self._params = params.copy()
        self.pipeline = pipeline
        self.optimizer = optimizer
        self.iteration = 0

    @property
    def params(self) -> np.ndarray:
        """Copy of the current global parameters ``w_t``."""
        return self._params.copy()

    def broadcast(self) -> np.ndarray:
        """Parameters sent to the workers at the start of an iteration: a
        read-only view of ``w_t``, not a copy.

        It stays ``w_t`` for as long as it is held — the optimizer step
        returns a new vector and never writes into the old one — so a round
        holds the parameters once.  The workers' model reads ``w_t``
        through it too: :meth:`~repro.nn.models.Sequential.set_flat_params`
        binds the layers' parameters to views of the broadcast (read-only,
        like it) instead of copying it into arrays of their own.
        """
        view = self._params.view()
        view.setflags(write=False)
        return view

    def aggregate_tensor(
        self, tensor: VoteTensor, arrived: np.ndarray | None = None
    ) -> RoundOutcome:
        """Run the aggregation pipeline without updating the model.

        ``arrived`` is the round's ``(f, r)`` mask of the copies the PS
        accepted before its deadline/quorum cutoff: only those vote.
        ``None`` means every copy arrived.  Worker groups
        (``AsyncRuntime.groups``) change only which copies the mask accepts;
        the pipeline votes every round with the same kernel.
        """
        return self.pipeline.aggregate_tensor(tensor, arrived)

    def _apply_gradient(self, gradient: np.ndarray) -> None:
        if gradient.shape != self._params.shape:
            raise TrainingError(
                f"aggregated gradient has shape {gradient.shape}, expected "
                f"{self._params.shape}"
            )
        self._params = self.optimizer.step_vector(self._params, gradient)
        self.iteration += 1

    def update_tensor(
        self, tensor: VoteTensor, arrived: np.ndarray | None = None
    ) -> RoundOutcome:
        """Aggregate the returns and take one optimizer step.

        Returns the round's :class:`~repro.core.pipelines.RoundOutcome`
        unchanged: ``.aggregate`` is the gradient used for the update.
        """
        outcome = self.aggregate_tensor(tensor, arrived)
        self._apply_gradient(outcome.aggregate)
        return outcome

    def state_digest(self) -> str:
        """Stable hex digest of the current global parameters.

        Two servers that applied bit-identical update sequences produce the
        same digest; scenario traces pin this per round to detect any drift.
        """
        return array_digest(self._params)
