"""Gradient oracle wrapping a model and a loss.

Workers (and the PS, for evaluation) need a function mapping
``(flat parameters, inputs, labels)`` to ``(flat gradient, loss)``.  The
computer temporarily loads the parameters into the shared model instance,
runs a forward/backward pass and extracts the flat gradient — the in-process
analogue of broadcasting ``w_t`` to a worker and having it compute its file
gradients.

:meth:`ModelGradientComputer.batched` is the round's hot entry point: with
the default ``engine="stacked"`` it computes all ``f`` file gradients in one
stacked pass through the model (leading file axis, per-file parameter
gradients written into one ``(f, d)`` workspace) and falls back to ``f``
sequential passes for ragged files or layers without a stacked rule.  Either
way the ``(f, d)`` matrix it returns is the previous call's whenever nothing
else still references that one (see :meth:`ModelGradientComputer.batched`).
"""

from __future__ import annotations

import sys

import numpy as np

from repro.data.batching import RoundFiles
from repro.exceptions import TrainingError
from repro.nn.losses import Loss, SoftmaxCrossEntropy
from repro.nn.models import Sequential

__all__ = ["ModelGradientComputer"]


class ModelGradientComputer:
    """Computes per-file gradients of a model at arbitrary parameter vectors.

    Parameters
    ----------
    model:
        The shared model instance (its parameters are overwritten on every
        call, which is safe because all callers pass explicit parameters).
    loss:
        Training loss; defaults to softmax cross entropy.
    engine:
        Per-file engine used by :meth:`batched`: ``"stacked"`` (default)
        computes all file gradients in one pass through the model's per-file
        path whenever the files are uniform and every layer supports it,
        silently falling back to the looped path otherwise; ``"looped"``
        always runs ``f`` sequential passes.  Both engines are bit-identical
        and both write into the recycled matrix of :meth:`batched`.
    """

    ENGINES = ("stacked", "looped")

    def __init__(
        self, model: Sequential, loss: Loss | None = None, engine: str = "stacked"
    ) -> None:
        if engine not in self.ENGINES:
            raise TrainingError(
                f"unknown gradient engine {engine!r}; expected one of {self.ENGINES}"
            )
        self.model = model
        self.loss = loss if loss is not None else SoftmaxCrossEntropy()
        self.engine = engine
        #: engine actually used by the most recent :meth:`batched` call
        #: ("stacked" or "looped"); informational, for tests and tracing.
        self.last_engine: str | None = None
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
            The round's :class:`~repro.data.batching.RoundFiles` (consumed
            without a copy), or what its ``coerce`` takes: a sequence of
            ``(inputs, labels)`` pairs, or the two stacked arrays.

        Returns
        -------
        gradients, losses:
            ``(f, d)`` gradient matrix in the model's working dtype (one
            contiguous allocation) and the ``(f,)`` per-file mean losses.
            Each row is bit-identical to what :meth:`__call__` returns for
            that file.

        Notes
        -----
        The returned matrix escapes into the round (the result's
        ``honest_matrix``, the lazy vote tensor's base, the attack context),
        so it is handed out again only when the caller has dropped all of
        that: same shape and dtype, and a reference count back at what it
        was when this object alone held it — a view, a held round result or a
        lazy ``VoteTensor`` each keep the count up.  A caller that holds on
        to a round therefore keeps its data and the next call allocates, as
        every call used to.  Both engines follow this rule.

        With ``engine="stacked"`` the call runs the model's single-pass
        per-file path (:meth:`Sequential.per_file_loss_and_gradients`) when
        every file has the same shape and every layer has a stacked rule;
        ragged files or unsupported layers fall back to the looped path.
        :attr:`last_engine` records which one ran.
        """
        files = RoundFiles.coerce(files)
        self.model.set_flat_params(params)
        gradients = self._round_matrix(len(files))
        stackable = self.engine == "stacked" and self.model.supports_per_file()
        if stackable and files.stacked is not None:
            # Every layer writes its per-file gradients straight into views
            # of the round's matrix.
            losses, _ = self.model.per_file_loss_and_gradients(
                *files.stacked, self.loss, out=gradients
            )
            self.last_engine = "stacked"
            return gradients, losses
        losses = np.empty(len(files), dtype=self.model.dtype)
        for i, (inputs, labels) in enumerate(files):
            value, gradient = self.model.loss_and_gradient(inputs, labels, self.loss)
            gradients[i] = gradient
            losses[i] = float(value)
        self.last_engine = "looped"
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
