"""Worker-side gradient computation.

In the real system every worker independently computes the gradient of each
file it is assigned.  Honest workers assigned the same file return
bit-identical gradients (the paper relies on this for exact-equality majority
voting), so the simulator computes each file gradient once — all ``f`` of
them into one ``(f, d)`` matrix, through the oracle's batched entry point
when it provides one — and :meth:`WorkerPool.honest_returns_tensor`
replicates it into the assigned slots of a copy-on-write
:class:`~repro.core.vote_tensor.VoteTensor` without copying a replica.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.backend import DEFAULT_DTYPE, ensure_float
from repro.core.vote_tensor import VoteTensor
from repro.data.batching import RoundFiles
from repro.exceptions import TrainingError
from repro.graphs.bipartite import BipartiteAssignment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.compression.compressors import Compressor

__all__ = ["WorkerPool"]

#: signature of the gradient oracle: (params, inputs, labels) -> (gradient, loss)
GradientFn = Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, float]]


class WorkerPool:
    """The ``K`` simulated workers and their per-file gradient computation.

    Parameters
    ----------
    assignment:
        Worker/file assignment graph.
    gradient_fn:
        Oracle computing ``(flat gradient, loss)`` of the model on a file's
        samples at the given parameters.  If the oracle exposes a ``batched``
        method (see :meth:`ModelGradientComputer.batched`), the tensor path
        uses it to compute all file gradients in one stacked call.
    compressor:
        Optional uplink compressor applied to each file gradient before it
        is (conceptually) transmitted to the PS.  Compression happens once
        per file, so all of a file's copies stay bit-identical and exact
        majority voting keeps working; the honest ground-truth matrix and
        losses are reported *uncompressed*.
    """

    def __init__(
        self,
        assignment: BipartiteAssignment,
        gradient_fn: GradientFn,
        compressor: "Compressor | None" = None,
    ) -> None:
        self.assignment = assignment
        self.gradient_fn = gradient_fn
        self.compressor = compressor

    def _transmitted(self, matrix: np.ndarray) -> np.ndarray:
        """The per-file vectors as the PS receives them (post compression).

        Delegates to :meth:`Compressor.compress_matrix`, one vectorized
        call per round.
        """
        if self.compressor is None:
            return matrix
        return self.compressor.compress_matrix(matrix)

    def compute_file_gradient_matrix(
        self,
        params: np.ndarray,
        file_data: "RoundFiles | dict[int, tuple[np.ndarray, np.ndarray]]",
    ) -> tuple[np.ndarray, np.ndarray]:
        """True gradients of every file stacked into an ``(f, d)`` matrix.

        Returns ``(gradients, losses)`` with shapes ``(f, d)`` and ``(f,)``.
        Dispatches to the oracle's ``batched`` entry point when available so
        model-backed pools load the parameters once for the whole round.
        """
        files = RoundFiles.coerce(file_data)
        if len(files) != self.assignment.num_files:
            raise TrainingError(
                "file_data must provide data for every file of the assignment"
            )
        batched = getattr(self.gradient_fn, "batched", None)
        if batched is not None:
            return batched(params, files)
        gradients: np.ndarray | None = None
        losses = np.empty(len(files), dtype=DEFAULT_DTYPE)
        for i, (inputs, labels) in enumerate(files):
            gradient, loss = self.gradient_fn(params, inputs, labels)
            vector = ensure_float(gradient).ravel()
            if gradients is None:
                gradients = np.empty((len(files), vector.size), dtype=vector.dtype)
            gradients[i] = vector
            losses[i] = float(loss)
        assert gradients is not None  # assignments always have >= 1 file
        return gradients, losses

    def honest_returns_tensor(
        self,
        params: np.ndarray,
        file_data: "RoundFiles | dict[int, tuple[np.ndarray, np.ndarray]]",
    ) -> tuple[VoteTensor, np.ndarray, np.ndarray]:
        """What every (worker, file) pair returns when all are honest.

        Returns ``(tensor, honest_matrix, file_losses)`` with the honest
        gradients replicated into every assigned ``(file, slot)`` of the
        ``(f, r, d)`` tensor, the ``(f, d)`` ground-truth matrix and the
        ``(f,)`` per-file losses.
        """
        matrix, losses = self.compute_file_gradient_matrix(params, file_data)
        tensor = VoteTensor.from_honest(self.assignment, self._transmitted(matrix))
        return tensor, matrix, losses
