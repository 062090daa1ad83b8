"""Gradient oracle wrapping a model and a loss.

Workers need a function mapping ``(flat parameters, a round's files)`` to
``(per-file gradients, losses)``.  The computer loads the parameters into
the shared model instance and runs the model's one gradient pass — the
in-process analogue of broadcasting ``w_t`` to the workers and having each
compute its file gradients.

:meth:`ModelGradientComputer.batched` is the round's entry point: it
computes all ``f`` file gradients in one stacked pass through the model
(leading file axis, per-file parameter gradients written into one ``(f, d)``
workspace), and the matrix it returns is the previous call's whenever
nothing else still references that one (see
:meth:`ModelGradientComputer.batched`).  Every row is tested, bit for bit,
against a plain per-file numpy MLP (``tests/reference_gradient.py``).
"""

from __future__ import annotations

import sys

import numpy as np

from repro.data.batching import RoundFiles
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

    def batched(self, params: np.ndarray, files) -> tuple[np.ndarray, np.ndarray]:
        """Per-file gradients stacked along a leading axis.

        Parameters
        ----------
        params:
            Flat parameter vector, loaded into the model once for the
            whole call.
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
            files in chunks).

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
