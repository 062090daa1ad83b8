"""Gradient oracle wrapping a model and a loss.

Workers (and the PS, for evaluation) need a function mapping
``(flat parameters, inputs, labels)`` to ``(flat gradient, loss)``.  The
computer temporarily loads the parameters into the shared model instance,
runs a forward/backward pass and extracts the flat gradient — the in-process
analogue of broadcasting ``w_t`` to a worker and having it compute its file
gradients.

:meth:`ModelGradientComputer.batched` is the round's hot entry point: it
computes all ``f`` file gradients in one stacked pass through the model
(leading file axis, per-file parameter gradients written into one ``(f, d)``
workspace), and the matrix it returns is the previous call's whenever
nothing else still references that one (see
:meth:`ModelGradientComputer.batched`).  :meth:`ModelGradientComputer.__call__`,
one file through the model's plain path, is the reference every stacked row
is tested against.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.data.batching import RoundFiles
from repro.exceptions import TrainingError
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.models import Sequential

__all__ = ["ModelGradientComputer"]


class ModelGradientComputer:
    """Computes per-file gradients of a model at arbitrary parameter vectors.

    Parameters
    ----------
    model:
        The shared model instance (its parameters are overwritten on every
        call, which is safe because all callers pass explicit parameters).
        The loss is softmax cross entropy.
    """

    def __init__(self, model: Sequential) -> None:
        self.model = model
        self.loss = SoftmaxCrossEntropy()
        #: the ``(f, d)`` matrix :meth:`batched` last returned, and what
        #: ``sys.getrefcount`` reads for it when only this object holds it
        self._matrix: np.ndarray | None = None
        self._matrix_refcount = 0

    @property
    def dim(self) -> int:
        """Dimensionality ``d`` of the flat gradient."""
        return self.model.num_parameters()

    def __call__(
        self, params: np.ndarray, inputs: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Gradient and loss of the model at ``params`` on ``(inputs, labels)``."""
        if inputs.shape[0] == 0:
            raise TrainingError("cannot compute a gradient on an empty file")
        self.model.set_flat_params(params)
        value, gradient = self.model.loss_and_gradient(inputs, labels, self.loss)
        return gradient, value

    def batched(self, params: np.ndarray, files) -> tuple[np.ndarray, np.ndarray]:
        """Per-file gradients stacked along a leading axis.

        Parameters
        ----------
        params:
            Flat parameter vector, loaded into the model **once** for the
            whole call (per-file ``__call__`` reloads it every time).
        files:
            The round's :class:`~repro.data.batching.RoundFiles` (its samples
            gathered a chunk at a time, never the whole batch at once), or
            what its ``coerce`` takes: a sequence of equal-size ``(inputs,
            labels)`` pairs, or the two stacked arrays.

        Returns
        -------
        gradients, losses:
            ``(f, d)`` gradient matrix in the model's working dtype (one
            contiguous allocation) and the ``(f,)`` per-file mean losses,
            from the model's stacked per-file pass
            (:meth:`Sequential.per_file_loss_and_gradients`, which walks the
            files in chunks).  Each row is bit-identical to what
            :meth:`__call__` returns for that file.

        Notes
        -----
        The returned matrix escapes into the round (the result's
        ``honest_matrix``, the vote tensor's base, the attack context),
        so it is handed out again only when the caller has dropped all of
        that: same shape and dtype, and a reference count back at what it
        was when this object alone held it — a view, a held round result or a
        ``VoteTensor`` each keep the count up.  A caller that holds on
        to a round therefore keeps its data and the next call allocates, as
        every call used to.
        """
        files = RoundFiles.coerce(files)
        self.model.set_flat_params(params)
        # Every layer writes its per-file gradients straight into views of
        # the round's matrix.
        losses, gradients = self.model.per_file_loss_and_gradients(
            files, self.loss, out=self._round_matrix(len(files))
        )
        return gradients, losses

    def _round_matrix(self, num_files: int) -> np.ndarray:
        """The ``(f, d)`` matrix to fill: the last one if it is free again.

        The two ``sys.getrefcount`` calls see the same holders (``self``,
        the local, the call's argument), so the first calibrates the second
        on any interpreter.
        """
        shape, dtype = (num_files, self.dim), self.model.dtype
        matrix = self._matrix
        if (
            matrix is None
            or matrix.shape != shape
            or matrix.dtype != dtype
            or sys.getrefcount(matrix) != self._matrix_refcount
        ):
            matrix = self._matrix = np.empty(shape, dtype=dtype)
            self._matrix_refcount = sys.getrefcount(matrix)
        return matrix

    def initial_params(self) -> np.ndarray:
        """The model's current parameters (used as ``w₀``)."""
        return self.model.get_flat_params()
