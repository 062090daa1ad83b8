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
sequential passes for ragged files or layers without a stacked rule.
"""

from __future__ import annotations

import numpy as np

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
        always runs ``f`` sequential passes.  Both engines are bit-identical.
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
            Either a sequence of ``(inputs, labels)`` pairs, or a pair of
            stacked arrays ``(inputs, labels)`` with shapes ``(f, n, ...)``
            and ``(f, n)`` — files along the leading axis.

        Returns
        -------
        gradients, losses:
            ``(f, d)`` gradient matrix in the model's working dtype (one
            contiguous allocation) and the ``(f,)`` per-file mean losses.
            Each row is bit-identical to what :meth:`__call__` returns for
            that file.

        Notes
        -----
        With ``engine="stacked"`` the call runs the model's single-pass
        per-file path (:meth:`Sequential.per_file_loss_and_gradients`) when
        every file has the same shape and every layer has a stacked rule;
        ragged files or unsupported layers fall back to the looped path.
        :attr:`last_engine` records which one ran.
        """
        if (
            isinstance(files, tuple)
            and len(files) == 2
            and isinstance(files[0], np.ndarray)
        ):
            files = list(zip(files[0], files[1]))
        else:
            files = list(files)
        if len(files) == 0:
            raise TrainingError("batched gradient computation needs >= 1 file")
        for inputs, _ in files:
            if inputs.shape[0] == 0:
                raise TrainingError("cannot compute a gradient on an empty file")
        self.model.set_flat_params(params)
        if self.engine == "stacked" and self._stackable(files):
            stacked_inputs = np.stack([inputs for inputs, _ in files])
            stacked_labels = np.stack([labels for _, labels in files])
            # One workspace per round (it escapes into the round result, so
            # it cannot be recycled across rounds); every layer writes its
            # per-file gradients straight into views of it.
            workspace = np.empty((len(files), self.dim), dtype=self.model.dtype)
            losses, gradients = self.model.per_file_loss_and_gradients(
                stacked_inputs, stacked_labels, self.loss, out=workspace
            )
            self.last_engine = "stacked"
            return gradients, losses
        gradients = np.empty((len(files), self.dim), dtype=self.model.dtype)
        losses = np.empty(len(files), dtype=self.model.dtype)
        for i, (inputs, labels) in enumerate(files):
            value, gradient = self.model.loss_and_gradient(inputs, labels, self.loss)
            gradients[i] = gradient
            losses[i] = float(value)
        self.last_engine = "looped"
        return gradients, losses

    def _stackable(self, files) -> bool:
        """True when the stacked engine applies: uniform files, capable model."""
        if not self.model.supports_per_file():
            return False
        first_inputs, first_labels = files[0]
        return all(
            inputs.shape == first_inputs.shape and labels.shape == first_labels.shape
            for inputs, labels in files[1:]
        )

    def initial_params(self) -> np.ndarray:
        """The model's current parameters (used as ``w₀``)."""
        return self.model.get_flat_params()
