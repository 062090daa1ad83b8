"""Models: a Sequential container and the architectures used in experiments.

The distributed simulator exchanges gradients as flat vectors, so the
container exposes :meth:`Sequential.get_flat_params`,
:meth:`Sequential.set_flat_params` and :meth:`Sequential.flat_gradient`.
Parameter writes are in-place so composite layers (residual blocks) that hold
references to sub-layer arrays stay consistent.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.backend import DEFAULT_DTYPE, resolve_dtype
from repro.exceptions import ConfigurationError
from repro.nn.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
    ResidualDenseBlock,
)
from repro.nn.losses import Loss
from repro.utils.rng import as_generator

__all__ = ["Sequential", "build_mlp", "build_cnn", "build_resnet_lite"]


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
    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        """Run the forward pass through every layer."""
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate from the output gradient; returns the input gradient."""
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Evaluation-mode forward pass."""
        return self.forward(x, training=False)

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

    def parameter_shapes(self) -> list[tuple[int, ...]]:
        """Shapes of all parameter arrays (used to unflatten vectors)."""
        return [array.shape for array in self.parameter_arrays()]

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
        """Write a flat vector back into the parameter arrays (in place)."""
        flat = np.asarray(flat, dtype=self.dtype).ravel()
        expected = self.num_parameters()
        if flat.size != expected:
            raise ConfigurationError(
                f"flat parameter vector has {flat.size} entries, model needs {expected}"
            )
        offset = 0
        for array in self.parameter_arrays():
            size = array.size
            array[...] = flat[offset : offset + size].reshape(array.shape)
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
        predictions = self.forward(x, training=True)
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
    def supports_per_file(self) -> bool:
        """True when every layer implements the stacked per-file path."""
        return all(layer.per_file_capable for layer in self.layers)

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

    def forward_per_file(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        """Stacked forward pass over ``(f, n, ...)`` inputs."""
        out = x
        for layer in self.layers:
            out = layer.forward_per_file(out, training=training)
        return out

    def per_file_loss_and_gradients(
        self, x: np.ndarray, y: np.ndarray, loss: Loss, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """All ``f`` per-file losses and flat gradients in one stacked pass.

        Parameters
        ----------
        x, y:
            Stacked inputs ``(f, n, ...)`` and targets ``(f, n, ...)`` — file
            ``i``'s batch lives in slice ``i``.
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
        if not self.supports_per_file():
            unsupported = sorted(
                {type(l).__name__ for l in self.layers if not l.per_file_capable}
            )
            raise ConfigurationError(
                f"model has layers without a stacked per-file rule: {unsupported}"
            )
        dtype = self.dtype
        x = np.asarray(x, dtype=dtype)
        if x.ndim < 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise ConfigurationError(
                f"stacked inputs must be (files, batch, ...) with at least one "
                f"file and one sample, got shape {x.shape}"
            )
        f, d = x.shape[0], self.num_parameters()
        if out is None:
            out = np.empty((f, d), dtype=dtype)
        elif out.shape != (f, d) or out.dtype != dtype or not out.flags.c_contiguous:
            raise ConfigurationError(
                f"workspace must be a C-contiguous {dtype} array of shape "
                f"({f}, {d}), got {out.dtype} {out.shape}"
            )
        views = self._per_file_gradient_views(out)
        first = self._first_parameterised()
        try:
            predictions = self.forward_per_file(x, training=True)
            losses, grad = loss.per_file_value_and_gradient(predictions, y)
            for index in range(len(self.layers) - 1, first, -1):
                grad = self.layers[index].backward_per_file(grad, views[index])
            if first < len(self.layers):
                self.layers[first].backward_per_file(grad, views[first], input_gradient=False)
        finally:  # a pass that raised must not leave f files' activations on the layers
            for layer in self.layers:
                layer.release_per_file()
        return losses, out

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
    batch_norm: bool = False,
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
    batch_norm:
        Insert a BatchNorm after every hidden Dense layer.
    dtype:
        Working dtype of every layer (see :mod:`repro.core.backend`).
    """
    rng = as_generator(seed)
    dtype = resolve_dtype(dtype)
    layers: list[Layer] = []
    width = input_dim
    for h in hidden:
        layers.append(Dense(width, h, rng=rng, dtype=dtype))
        if batch_norm:
            layers.append(BatchNorm(h, dtype=dtype))
        layers.append(ReLU())
        width = h
    layers.append(Dense(width, num_classes, rng=rng, dtype=dtype))
    return Sequential(layers, name=f"mlp({input_dim}->{list(hidden)}->{num_classes})")


def build_cnn(
    input_shape: tuple[int, int, int],
    num_classes: int,
    channels: Sequence[int] = (8, 16),
    kernel_size: int = 3,
    dense_width: int = 64,
    seed: int | np.random.Generator | None = 0,
    dtype: object | None = None,
) -> Sequential:
    """Small convolutional classifier (Conv-ReLU-Pool blocks + dense head).

    Parameters
    ----------
    input_shape:
        ``(channels, height, width)`` of the input images.
    num_classes:
        Number of output classes.
    channels:
        Output channels of the successive conv blocks; each block halves the
        spatial resolution with a 2x2 max pool.
    """
    rng = as_generator(seed)
    dtype = resolve_dtype(dtype)
    in_channels, height, width = input_shape
    layers: list[Layer] = []
    current = in_channels
    for out_channels in channels:
        layers.append(
            Conv2D(
                current,
                out_channels,
                kernel_size,
                padding=kernel_size // 2,
                rng=rng,
                dtype=dtype,
            )
        )
        layers.append(ReLU())
        layers.append(MaxPool2D(2))
        current = out_channels
        height //= 2
        width //= 2
        if height < 1 or width < 1:
            raise ConfigurationError(
                "too many conv blocks for the input resolution"
            )
    layers.append(Flatten())
    layers.append(Dense(current * height * width, dense_width, rng=rng, dtype=dtype))
    layers.append(ReLU())
    layers.append(Dense(dense_width, num_classes, rng=rng, dtype=dtype))
    return Sequential(layers, name=f"cnn(channels={list(channels)})")


def build_resnet_lite(
    input_dim: int,
    num_classes: int,
    width: int = 64,
    num_blocks: int = 3,
    seed: int | np.random.Generator | None = 0,
    dtype: object | None = None,
) -> Sequential:
    """Residual MLP — the repo's stand-in for ResNet-18 (see DESIGN.md).

    A stem Dense layer lifts the input to ``width`` features, ``num_blocks``
    identity residual blocks follow, and a linear head produces the logits.
    """
    rng = as_generator(seed)
    dtype = resolve_dtype(dtype)
    layers: list[Layer] = [Dense(input_dim, width, rng=rng, dtype=dtype), ReLU()]
    for _ in range(num_blocks):
        layers.append(ResidualDenseBlock(width, rng=rng, dtype=dtype))
    layers.append(Dense(width, num_classes, rng=rng, dtype=dtype))
    return Sequential(
        layers, name=f"resnet_lite(width={width}, blocks={num_blocks})"
    )
