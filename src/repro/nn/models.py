"""Models: a Sequential container and the MLP every scenario trains.

The distributed simulator exchanges parameters and gradients as flat
vectors.  The container binds its parameters to one
(:meth:`Sequential.set_flat_params`; :meth:`Sequential.get_flat_params`
copies them out), and computes gradients one way: all ``f`` files of a
round at once, each file's flat gradient written into its row of one
``(f, d)`` matrix (:meth:`Sequential.per_file_loss_and_gradients`).  The
layers hold no parameters of their own once a vector is bound: each
parameter array is a view of the vector the model was last given.
"""

from __future__ import annotations

import math
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

#: Bytes one chunk of the stacked per-file pass may hold: its gathered
#: samples and every layer's output for them, as
#: :meth:`Sequential._files_per_chunk` costs a file.  The pass writes each
#: activation once (see :mod:`repro.nn.layers`), so a chunk holds less than
#: that cost.  Timed at ``clean-compute-bound``'s pass (25 files of 256
#: samples, 100-64-64-10, float64; 2-core Xeon, one BLAS thread), median of
#: 40 interleaved, in each of 6 processes that first freed a 20 MiB array
#: (which raises glibc's mmap and trim thresholds; without it three files
#: read 22-32 % slower than two): 1 / 2 / 3 files a chunk read 18.4 / 16.9 /
#: 16.6 ms (median over the processes) and held 0.57 / 1.08 / 1.62 MiB.
#: Per process, one file was 6-13 % slower than two and three 1-4 % faster.
#: 2 MiB is two files there; a batch of 8 samples a file (every other e2e
#: workload) is one chunk.
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
        #: every parameter's ``(layer index, name, shape, start, stop)`` in the
        #: flat vector, in :meth:`parameter_arrays` order: a layer's parameter
        #: shapes are fixed when it is built, so the layout is read once
        self._layout: list[tuple[int, str, tuple[int, ...], int, int]] = []
        start = 0
        for index, layer in enumerate(self.layers):
            for key, array in layer.parameter_items():
                self._layout.append((index, key, array.shape, start, start + array.size))
                start += array.size
        #: the model's working dtype: its first parameter's (mixed-dtype stacks
        #: are not built), the backend default for a parameterless model
        self.dtype: np.dtype = next(
            (a.dtype for layer in self.layers for _, a in layer.parameter_items()), DEFAULT_DTYPE
        )
        #: the first layer that owns parameters (``len(layers)`` when none
        #: does): the backward pass stops there, as nothing reads an input
        #: gradient beyond it
        self._first = next(
            (i for i, layer in enumerate(self.layers) if layer.params), len(self.layers)
        )

    # -- forward -----------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the plain forward pass through every layer; it keeps nothing."""
        out = x
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def release(self) -> None:
        """Drop every layer's cache (:meth:`Layer.release`): the stacked pass
        calls it in a ``finally``, for the layers no backward pass reaches and
        for a pass that raised."""
        for layer in self.layers:
            layer.release()

    # -- parameter plumbing ----------------------------------------------------
    def parameter_arrays(self) -> list[np.ndarray]:
        """All parameter arrays in deterministic (layer, name) order."""
        return [self.layers[index].params[name] for index, name, *_ in self._layout]

    def num_parameters(self) -> int:
        """Total scalar parameter count ``d``."""
        return self._layout[-1][4] if self._layout else 0

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
        for index, name, shape, start, stop in self._layout:
            self.layers[index].params[name] = flat[start:stop].reshape(shape)

    # -- stacked per-file path -------------------------------------------------
    def _per_file_gradient_views(self, workspace: np.ndarray) -> list[dict[str, np.ndarray]]:
        """Per-layer views into a ``(f, d)`` workspace, one per parameter.

        View ``[layer][name]`` has shape ``(f, *param.shape)`` and aliases the
        columns the parameter's flat gradient occupies (the order of
        :meth:`parameter_arrays`), so layers write their per-file gradients
        straight into the workspace — no per-file concatenation.
        """
        f = workspace.shape[0]
        views: list[dict[str, np.ndarray]] = [{} for _ in self.layers]
        for index, name, shape, start, stop in self._layout:
            views[index][name] = workspace[:, start:stop].reshape((f, *shape))
        return views

    def forward_per_file(self, x: np.ndarray) -> np.ndarray:
        """Stacked forward pass over ``(f, n, ...)`` inputs, which the pass owns
        from here on (a leading ``ReLU`` rectifies them in place)."""
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
            The round's files (:class:`~repro.data.batching.RoundFiles`):
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
            row ``i`` is file ``i``'s, bit for bit what one file's plain
            forward and backward in the same op order gives.
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
        # The pass reads a chunk and writes only the arrays it made, except
        # that a layer in front of the first parameterised one rectifies its
        # input in place: that chunk is copied, as it may be the caller's.
        copy = True if self._first else None
        for lo, hi in block_ranges(f, self._files_per_chunk(files.shape)):
            x, y = files.chunk(lo, hi)
            x = np.array(x, dtype=dtype, copy=copy)
            losses[lo:hi] = self._stacked_pass(x, y, loss, out[lo:hi])
            del x, y
        return losses, out

    def _files_per_chunk(self, shape: tuple[int, ...]) -> int:
        """Files per chunk of the stacked pass over inputs of ``shape``.

        One file is costed as everything its chunk holds for it: its ``n``
        gathered samples and every layer's output for them, once each,
        ``n * (input width + sum(output widths)) * itemsize``.  As many
        files as fit in :data:`_CHUNK_BYTES` share a chunk, and at least one.
        """
        width = math.prod(shape[2:])
        per_sample = width
        for layer in self.layers:
            width = layer.output_features(width)
            per_sample += width
        per_file = max(1, shape[1] * per_sample * self.dtype.itemsize)
        return max(1, _CHUNK_BYTES // per_file)

    def _stacked_pass(
        self, x: np.ndarray, y: np.ndarray, loss: Loss, out: np.ndarray
    ) -> np.ndarray:
        """Forward, loss and backward over one chunk of files, gradients into ``out``."""
        views, first = self._per_file_gradient_views(out), self._first
        try:
            predictions = self.forward_per_file(x)
            losses, grad = loss.per_file_value_and_gradient(predictions, y)
            for index in range(len(self.layers) - 1, first, -1):
                grad = self.layers[index].backward_per_file(grad, views[index])
            if first < len(self.layers):
                self.layers[first].backward_per_file(grad, views[first], input_gradient=False)
        finally:  # a pass that raised must not leave its activations on the layers
            self.release()
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

