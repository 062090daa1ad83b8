"""Models: a Sequential container and the MLP every scenario trains.

The distributed simulator exchanges gradients as flat vectors, so the
container exposes :meth:`Sequential.get_flat_params`,
:meth:`Sequential.set_flat_params` and :meth:`Sequential.flat_gradient`.
The layers hold no parameters of their own once a vector is bound: each
parameter array is a view of the vector the model was last given.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.backend import DEFAULT_DTYPE, resolve_dtype
from repro.exceptions import ConfigurationError
from repro.nn.layers import Dense, Layer, ReLU
from repro.nn.losses import Loss
from repro.utils.arrays import block_ranges
from repro.utils.rng import as_generator

if TYPE_CHECKING:  # pragma: no cover - the model reads only the files' shape and chunks
    from repro.data.batching import RoundFiles

__all__ = ["Sequential", "build_mlp"]

#: Bytes of activations one chunk of the stacked per-file pass may hold
#: (:meth:`Sequential._files_per_chunk` costs a file as every layer's output
#: for its samples).  Each chunk's samples are gathered per chunk, just before
#: its pass, so the pass also holds one chunk's inputs, which this budget does
#: not count.  Timed at ``clean-compute-bound``'s pass (25 files of 256
#: samples, 100-64-64-10, float64; 2-core Xeon, one BLAS thread), median of 40
#: interleaved, in each of 6 processes: 1 / 2 / 3 / 4 / 5 / 8 / 25 files a
#: chunk read 10.3 / 9.4 / 9.1 / 9.0 / 8.8 / 10.0 / 12.9 ms.  2 MiB is three
#: files there, the smallest chunk within 5 % of the fastest; a batch of 8
#: samples a file (every other e2e workload) is one chunk.
_CHUNK_BYTES = 2 * 1024 * 1024


class Sequential:
    """A plain feed-forward stack of layers.

    Parameters
    ----------
    layers:
        The layers in execution order.
    name:
        Label used in experiment reports.
    """

    def __init__(self, layers: Sequence[Layer], name: str = "sequential") -> None:
        if len(layers) == 0:
            raise ConfigurationError("a model needs at least one layer")
        self.layers = list(layers)
        self.name = str(name)

    @property
    def dtype(self) -> np.dtype:
        """The model's working dtype, read off the first parameter array.

        Parameterless models report the backend default.  Mixed-dtype stacks
        are not supported by the builders, so one probe suffices.
        """
        for layer in self.layers:
            for _, array in layer.parameter_items():
                return array.dtype
        return DEFAULT_DTYPE

    # -- forward / backward ------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the forward pass through every layer."""
        out = x
        for layer in self.layers:
            out = layer.forward(out)
        return out

    # -- parameter plumbing ----------------------------------------------------
    def parameter_arrays(self) -> list[np.ndarray]:
        """All parameter arrays in deterministic (layer, name) order."""
        arrays: list[np.ndarray] = []
        for layer in self.layers:
            arrays.extend(array for _, array in layer.parameter_items())
        return arrays

    def gradient_arrays(self) -> list[np.ndarray]:
        """All gradient arrays in the same order as :meth:`parameter_arrays`."""
        arrays: list[np.ndarray] = []
        for layer in self.layers:
            arrays.extend(array for _, array in layer.gradient_items())
        return arrays

    def num_parameters(self) -> int:
        """Total scalar parameter count ``d``."""
        return int(sum(array.size for array in self.parameter_arrays()))

    def get_flat_params(self) -> np.ndarray:
        """Copy of all parameters as a single flat vector (model dtype)."""
        arrays = self.parameter_arrays()
        if not arrays:
            return np.zeros(0, dtype=DEFAULT_DTYPE)
        return np.concatenate([a.ravel() for a in arrays])

    def set_flat_params(self, flat: np.ndarray) -> None:
        """Bind the parameters to ``flat``: each layer's ``params[name]``
        becomes a reshaped view of its slice of the vector, so the model
        keeps no copy of its own.

        A vector in another dtype is converted once, to the model's, and
        the views are of that conversion.  A read-only vector (the PS's
        broadcast of ``w_t``) gives read-only parameters, and a later write
        into a writable one is seen by the model.
        """
        flat = np.asarray(flat, dtype=self.dtype).ravel()
        expected = self.num_parameters()
        if flat.size != expected:
            raise ConfigurationError(
                f"flat parameter vector has {flat.size} entries, model needs {expected}"
            )
        offset = 0
        for layer in self.layers:
            for name, array in layer.parameter_items():
                size = array.size
                layer.params[name] = flat[offset : offset + size].reshape(array.shape)
                offset += size

    def flat_gradient(self) -> np.ndarray:
        """Current gradients as a single flat vector (after a backward pass)."""
        arrays = self.gradient_arrays()
        if not arrays:
            return np.zeros(0, dtype=DEFAULT_DTYPE)
        return np.concatenate([a.ravel() for a in arrays])

    def zero_grads(self) -> None:
        """Reset every layer's gradients."""
        for layer in self.layers:
            layer.zero_grads()

    # -- convenience ----------------------------------------------------------
    def loss_and_gradient(
        self, x: np.ndarray, y: np.ndarray, loss: Loss
    ) -> tuple[float, np.ndarray]:
        """Mean loss on ``(x, y)`` and the flat parameter gradient (backward stops at the
        first layer that owns parameters: nothing reads an input gradient beyond it)."""
        self.zero_grads()
        predictions = self.forward(x)
        value, grad = loss.value_and_gradient(predictions, y)
        first = self._first_parameterised()
        for layer in reversed(self.layers[first + 1 :]):
            grad = layer.backward(grad)
        if first < len(self.layers):
            self.layers[first].backward(grad, input_gradient=False)
        return value, self.flat_gradient()

    def _first_parameterised(self) -> int:
        """Index of the first layer that owns parameters (``len(layers)`` when none does)."""
        return next((i for i, layer in enumerate(self.layers) if layer.params), len(self.layers))

    # -- stacked per-file path -------------------------------------------------
    def _per_file_gradient_views(self, workspace: np.ndarray) -> list[dict[str, np.ndarray]]:
        """Per-layer views into a ``(f, d)`` workspace, one per parameter.

        View ``[layer][name]`` has shape ``(f, *param.shape)`` and aliases the
        columns the parameter's flat gradient occupies, so layers write their
        per-file gradients straight into the workspace — no per-file
        ``flat_gradient`` concatenation.
        """
        f = workspace.shape[0]
        views: list[dict[str, np.ndarray]] = []
        offset = 0
        for layer in self.layers:
            layer_views: dict[str, np.ndarray] = {}
            for name, array in layer.parameter_items():
                size = array.size
                layer_views[name] = workspace[:, offset : offset + size].reshape(
                    (f,) + array.shape
                )
                offset += size
            views.append(layer_views)
        return views

    def forward_per_file(self, x: np.ndarray) -> np.ndarray:
        """Stacked forward pass over ``(f, n, ...)`` inputs."""
        out = x
        for layer in self.layers:
            out = layer.forward_per_file(out)
        return out

    def per_file_loss_and_gradients(
        self, files: RoundFiles, loss: Loss, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """All ``f`` per-file losses and flat gradients, in chunks of files.

        The file axis is walked in chunks of :meth:`_files_per_chunk` files.
        Each chunk's samples are gathered just before it runs forward, loss
        and backward, and are dropped with its activations before the next
        chunk is gathered, so the pass holds one chunk's samples and
        activations whatever the batch size.  Every stacked op keeps the file
        axis as a loop dimension (see :mod:`repro.nn.layers`), so no file sees
        how many others share its chunk and the chunking is invisible in the
        results.

        Parameters
        ----------
        files:
            The round's uniform files (:class:`~repro.data.batching.RoundFiles`):
            ``files.shape`` is the stacked inputs' ``(f, n, ...)`` and
            ``files.chunk(lo, hi)`` gathers files ``lo..hi-1`` as stacked
            inputs and targets — file ``i``'s batch in slice ``i``.
        loss:
            The training loss.
        out:
            Optional preallocated ``(f, d)`` workspace in the model dtype the
            gradients are written into (allocated when omitted, reusable
            across rounds).

        Returns
        -------
        losses, gradients:
            ``(f,)`` per-file mean losses and the ``(f, d)`` gradient matrix;
            row ``i`` is bit-identical to ``loss_and_gradient`` on file ``i``.
        """
        dtype = self.dtype
        f, d = len(files), self.num_parameters()
        if out is None:
            out = np.empty((f, d), dtype=dtype)
        elif out.shape != (f, d) or out.dtype != dtype or not out.flags.c_contiguous:
            raise ConfigurationError(
                f"workspace must be a C-contiguous {dtype} array of shape "
                f"({f}, {d}), got {out.dtype} {out.shape}"
            )
        losses = np.empty(f, dtype=dtype)
        for lo, hi in block_ranges(f, self._files_per_chunk(files.shape)):
            x, y = files.chunk(lo, hi)
            losses[lo:hi] = self._stacked_pass(np.asarray(x, dtype=dtype), y, loss, out[lo:hi])
            del x, y
        return losses, out

    def _files_per_chunk(self, shape: tuple[int, ...]) -> int:
        """Files per chunk of the stacked pass over inputs of ``shape``.

        One file's activations are costed as every layer's output for its
        ``n`` samples, once: ``n * sum(output widths) * itemsize``.  As many
        files as fit in :data:`_CHUNK_BYTES` share a chunk, and at least one.
        """
        width = int(np.prod(shape[2:], dtype=np.int64))
        per_sample = 0
        for layer in self.layers:
            width = layer.output_features(width)
            per_sample += width
        per_file = max(1, shape[1] * per_sample * self.dtype.itemsize)
        return max(1, _CHUNK_BYTES // per_file)

    def _stacked_pass(
        self, x: np.ndarray, y: np.ndarray, loss: Loss, out: np.ndarray
    ) -> np.ndarray:
        """Forward, loss and backward over one chunk of files, gradients into ``out``."""
        views = self._per_file_gradient_views(out)
        first = self._first_parameterised()
        try:
            predictions = self.forward_per_file(x)
            losses, grad = loss.per_file_value_and_gradient(predictions, y)
            for index in range(len(self.layers) - 1, first, -1):
                grad = self.layers[index].backward_per_file(grad, views[index])
            if first < len(self.layers):
                self.layers[first].backward_per_file(grad, views[first], input_gradient=False)
        finally:  # a pass that raised must not leave its activations on the layers
            for layer in self.layers:
                layer.release_per_file()
        return losses

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Sequential(name={self.name!r}, layers={len(self.layers)}, "
            f"parameters={self.num_parameters()})"
        )


def build_mlp(
    input_dim: int,
    num_classes: int,
    hidden: Sequence[int] = (64, 64),
    seed: int | np.random.Generator | None = 0,
    dtype: object | None = None,
) -> Sequential:
    """Multi-layer perceptron classifier.

    Parameters
    ----------
    input_dim, num_classes:
        Input feature count and number of output classes (logits).
    hidden:
        Widths of the hidden layers.
    seed:
        Initialization seed.
    dtype:
        Working dtype of every layer (see :mod:`repro.core.backend`).
    """
    rng = as_generator(seed)
    dtype = resolve_dtype(dtype)
    layers: list[Layer] = []
    width = input_dim
    for h in hidden:
        layers.append(Dense(width, h, rng=rng, dtype=dtype))
        layers.append(ReLU())
        width = h
    layers.append(Dense(width, num_classes, rng=rng, dtype=dtype))
    return Sequential(layers, name=f"mlp({input_dim}->{list(hidden)}->{num_classes})")

