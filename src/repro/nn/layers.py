"""Neural-network layers with explicit forward/backward passes.

Every layer stores its learnable parameters in ``self.params`` and the
gradients of the last backward pass in ``self.grads`` (same keys).  The
forward pass caches whatever the backward pass needs; layers are therefore
stateful within one forward/backward round trip, exactly as a worker uses
them when computing its file gradients.

Array layout conventions:

* dense inputs: ``(batch, features)``;
* convolutional inputs: ``(batch, channels, height, width)``.

Per-file stacked path
---------------------

Workers compute ``f`` independent file gradients per round.  Layers that set
``per_file_capable = True`` additionally implement a *stacked* path operating
on inputs with a leading file axis — ``(f, batch, ...)`` — so one pass through
the stack computes all ``f`` forward/backward sweeps at once:

* :meth:`Layer.forward_per_file` maps ``(f, n, ...)`` to ``(f, n, ...)``;
* :meth:`Layer.backward_per_file` maps the stacked output gradient back to the
  stacked input gradient and writes per-file parameter gradients of shape
  ``(f, *param.shape)`` into caller-provided arrays (views into one
  preallocated ``(f, d)`` workspace — see
  :meth:`repro.nn.models.Sequential.per_file_loss_and_gradients`).

Ownership: no forward pass writes into its input (the caller's batch, a
residual block's skip branch), but ``backward_per_file`` may write into
``grad_output`` — the pass produced it (the loss, or the layer above).  What
``forward_per_file`` keeps for the backward pass is all ``f`` files' worth of
activations: it lives in ``_stacked`` and ``backward_per_file`` releases it
(:meth:`Layer.release_per_file` when the pass raised in between).

The first layer that owns parameters is called with ``input_gradient=False``
(both paths): it returns ``None`` instead of an input gradient nobody reads,
and the layers in front of it are not run backward at all.

The contract is *bit-identity*: slice ``i`` of every stacked result must equal
what the plain path produces for file ``i``.  Stacked matmuls therefore keep
the file axis as a gufunc loop dimension (one BLAS call per file with the same
operand shapes as the plain path) instead of folding files into the GEMM
``m``-dimension, and :class:`BatchNorm` normalizes each file with its own
batch statistics, replaying the running-statistics updates in file order.
:class:`Dropout` has no stacked rule (its mask stream is defined by the
per-file call order) and forces the engine's looped fallback.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.backend import ensure_float, resolve_dtype
from repro.exceptions import ConfigurationError
from repro.nn.initializers import he_normal, zeros_init
from repro.utils.rng import as_generator

__all__ = [
    "Layer",
    "Dense",
    "ReLU",
    "Tanh",
    "Flatten",
    "Dropout",
    "BatchNorm",
    "Conv2D",
    "MaxPool2D",
    "ResidualDenseBlock",
]


class Layer(abc.ABC):
    """Base class: a differentiable transformation with optional parameters."""

    #: True when the layer implements the stacked per-file path
    #: (:meth:`forward_per_file` / :meth:`backward_per_file`).
    per_file_capable: bool = False

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        #: what ``forward_per_file`` keeps for ``backward_per_file``
        self._stacked = None

    @abc.abstractmethod
    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        """Compute the layer output for input ``x``."""

    @abc.abstractmethod
    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate ``dL/d(output)`` and return ``dL/d(input)``.

        Parameter gradients are accumulated into ``self.grads``.  A layer with
        parameters also takes ``input_gradient=False`` and then returns ``None``.
        """

    # -- stacked per-file path ---------------------------------------------
    def forward_per_file(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        """Forward pass over stacked inputs ``(f, n, ...)``; see module docs."""
        raise NotImplementedError(
            f"{type(self).__name__} has no stacked per-file rule; the gradient "
            "engine must fall back to the looped path"
        )

    def backward_per_file(
        self, grad_output: np.ndarray, grads_out: dict[str, np.ndarray]
    ) -> np.ndarray:
        """Stacked backward pass; per-file parameter gradients go to ``grads_out``.

        ``grads_out`` maps each parameter name to a ``(f, *param.shape)``
        array (typically a view into the engine's shared workspace) that the
        layer must write in full.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no stacked per-file rule; the gradient "
            "engine must fall back to the looped path"
        )

    def _take_stacked(self):
        """The stacked forward pass's cache, handed over and released."""
        cache, self._stacked = self._stacked, None
        if cache is None:
            raise ConfigurationError("backward_per_file called before forward_per_file")
        return cache

    def release_per_file(self) -> None:
        """Drop what a stacked forward pass left behind (see module docs)."""
        self._stacked = None

    # -- parameter plumbing ------------------------------------------------
    def parameter_items(self) -> list[tuple[str, np.ndarray]]:
        """Deterministically ordered ``(name, array)`` pairs of learnable params."""
        return [(k, self.params[k]) for k in sorted(self.params)]

    def gradient_items(self) -> list[tuple[str, np.ndarray]]:
        """Gradients in the same order as :meth:`parameter_items`."""
        return [(k, self.grads[k]) for k in sorted(self.params)]

    def zero_grads(self) -> None:
        """Reset all parameter gradients to zero arrays of the right shape."""
        for key, value in self.params.items():
            self.grads[key] = np.zeros_like(value)

    def num_parameters(self) -> int:
        """Total number of scalar parameters in the layer."""
        return int(sum(p.size for p in self.params.values()))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(params={self.num_parameters()})"


class Dense(Layer):
    """Fully connected layer ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output widths.
    rng:
        Seed or generator for the He-normal weight initialization.
    use_bias:
        Include the additive bias term (default True).
    dtype:
        Working dtype of the parameters (see :mod:`repro.core.backend`);
        inputs are coerced to it on entry.
    """

    per_file_capable = True

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: int | np.random.Generator | None = 0,
        use_bias: bool = True,
        dtype: object | None = None,
    ) -> None:
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ConfigurationError("Dense layer widths must be positive")
        generator = as_generator(rng)
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.use_bias = bool(use_bias)
        self.dtype = resolve_dtype(dtype)
        self.params["W"] = he_normal(
            (in_features, out_features), generator, fan_in=in_features, dtype=self.dtype
        )
        if use_bias:
            self.params["b"] = zeros_init((out_features,), dtype=self.dtype)
        self.zero_grads()
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ConfigurationError(
                f"Dense expected input of shape (batch, {self.in_features}), got {x.shape}"
            )
        self._input = x
        out = x @ self.params["W"]
        if self.use_bias:
            out += self.params["b"]
        return out

    def backward(self, grad_output: np.ndarray, input_gradient: bool = True) -> np.ndarray | None:
        if self._input is None:
            raise ConfigurationError("backward called before forward on Dense layer")
        x = self._input
        self.grads["W"] = x.T @ grad_output
        if self.use_bias:
            self.grads["b"] = grad_output.sum(axis=0)
        return grad_output @ self.params["W"].T if input_gradient else None

    def forward_per_file(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 3 or x.shape[2] != self.in_features:
            raise ConfigurationError(
                f"Dense expected stacked input (f, batch, {self.in_features}), "
                f"got {x.shape}"
            )
        self._stacked = x
        # (f, n, in) @ (in, out): one BLAS call per file slice, with the same
        # operand shapes as the plain path — keeps the results bit-identical.
        out = x @ self.params["W"]
        if self.use_bias:
            out += self.params["b"]
        return out

    def backward_per_file(
        self, grad_output: np.ndarray, grads_out: dict[str, np.ndarray], input_gradient: bool = True
    ) -> np.ndarray | None:
        x = self._take_stacked()
        np.matmul(x.transpose(0, 2, 1), grad_output, out=grads_out["W"])
        if self.use_bias:
            np.sum(grad_output, axis=1, out=grads_out["b"])
        return grad_output @ self.params["W"].T if input_gradient else None


def _rectify(x: np.ndarray) -> np.ndarray:
    """``np.where(x > 0, x, 0.0)`` bit for bit (new array), several times faster: ``fmax``
    may answer ``-0.0`` for a zero, and adding ``+0.0`` changes that and nothing else."""
    out = np.fmax(x, 0.0)
    out += 0.0
    return out


class ReLU(Layer):
    """Rectified linear unit ``max(x, 0)``."""

    per_file_capable = True

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._mask = x > 0
        return _rectify(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ConfigurationError("backward called before forward on ReLU layer")
        return grad_output * self._mask

    # Elementwise, so the plain rules apply — in place on the pass's own gradient.
    def forward_per_file(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._stacked = x > 0
        return _rectify(x)

    def backward_per_file(
        self, grad_output: np.ndarray, grads_out: dict[str, np.ndarray]
    ) -> np.ndarray:
        return np.multiply(grad_output, self._take_stacked(), out=grad_output)


class Tanh(Layer):
    """Hyperbolic tangent activation."""

    per_file_capable = True

    def __init__(self) -> None:
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._output = np.tanh(x)
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise ConfigurationError("backward called before forward on Tanh layer")
        return grad_output * (1.0 - self._output**2)

    # Elementwise, so the plain rules apply — in place on the pass's own gradient.
    def forward_per_file(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._stacked = np.tanh(x)
        return self._stacked

    def backward_per_file(
        self, grad_output: np.ndarray, grads_out: dict[str, np.ndarray]
    ) -> np.ndarray:
        slope = self._take_stacked() ** 2
        np.subtract(1.0, slope, out=slope)
        return np.multiply(grad_output, slope, out=grad_output)


class Flatten(Layer):
    """Reshape ``(batch, ...)`` inputs to ``(batch, features)``."""

    per_file_capable = True

    def __init__(self) -> None:
        super().__init__()
        self._input_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._input_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise ConfigurationError("backward called before forward on Flatten layer")
        return grad_output.reshape(self._input_shape)

    def forward_per_file(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._stacked = x.shape
        return x.reshape(x.shape[0], x.shape[1], -1)

    def backward_per_file(
        self, grad_output: np.ndarray, grads_out: dict[str, np.ndarray]
    ) -> np.ndarray:
        return grad_output.reshape(self._take_stacked())


class Dropout(Layer):
    """Inverted dropout; identity at evaluation time.

    Parameters
    ----------
    rate:
        Probability of dropping a unit, in [0, 1).
    rng:
        Seed or generator for the dropout masks.
    """

    def __init__(self, rate: float, rng: int | np.random.Generator | None = 0) -> None:
        super().__init__()
        if not (0.0 <= rate < 1.0):
            raise ConfigurationError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self._rng = as_generator(rng)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        x = ensure_float(x)
        keep = 1.0 - self.rate
        # Cast the boolean mask to the input's working dtype before scaling so
        # a float32 activation is not silently promoted (bit-identical at
        # float64: the cast yields exact 0.0/1.0 before the division).
        self._mask = (self._rng.random(x.shape) < keep).astype(x.dtype) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask


class BatchNorm(Layer):
    """Batch normalization over the feature axis.

    Supports dense inputs ``(batch, features)`` and convolutional inputs
    ``(batch, channels, H, W)``; in the latter case statistics are computed
    per channel.  Running statistics are kept for evaluation mode.

    Parameters
    ----------
    num_features:
        Feature (or channel) count.
    momentum:
        Running-statistics update coefficient.
    epsilon:
        Numerical stabilizer added to the variance.
    dtype:
        Working dtype of the parameters and running statistics.
    """

    per_file_capable = True

    def __init__(
        self,
        num_features: int,
        momentum: float = 0.9,
        epsilon: float = 1e-5,
        dtype: object | None = None,
    ) -> None:
        super().__init__()
        if num_features < 1:
            raise ConfigurationError("num_features must be positive")
        self.num_features = int(num_features)
        self.momentum = float(momentum)
        self.epsilon = float(epsilon)
        self.dtype = resolve_dtype(dtype)
        self.params["gamma"] = np.ones(num_features, dtype=self.dtype)
        self.params["beta"] = np.zeros(num_features, dtype=self.dtype)
        self.running_mean = np.zeros(num_features, dtype=self.dtype)
        self.running_var = np.ones(num_features, dtype=self.dtype)
        self.zero_grads()
        self._cache: tuple | None = None

    @staticmethod
    def _to_2d(x: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
        if x.ndim == 2:
            return x, x.shape
        if x.ndim == 4:
            batch, channels, height, width = x.shape
            flat = x.transpose(0, 2, 3, 1).reshape(-1, channels)
            return flat, x.shape
        raise ConfigurationError(f"BatchNorm supports 2-D or 4-D inputs, got ndim={x.ndim}")

    @staticmethod
    def _from_2d(flat: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        if len(shape) == 2:
            return flat
        batch, channels, height, width = shape
        return flat.reshape(batch, height, width, channels).transpose(0, 3, 1, 2)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        flat, shape = self._to_2d(np.asarray(x, dtype=self.dtype))
        if flat.shape[1] != self.num_features:
            raise ConfigurationError(
                f"BatchNorm expected {self.num_features} features, got {flat.shape[1]}"
            )
        if training:
            mean = flat.mean(axis=0)
            var = flat.var(axis=0)
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mean = self.running_mean
            var = self.running_var
        std = np.sqrt(var + self.epsilon)
        normalized = (flat - mean) / std
        out = normalized * self.params["gamma"] + self.params["beta"]
        self._cache = (normalized, std, shape, training)
        return self._from_2d(out, shape)

    def backward(self, grad_output: np.ndarray, input_gradient: bool = True) -> np.ndarray | None:
        if self._cache is None:
            raise ConfigurationError("backward called before forward on BatchNorm layer")
        normalized, std, shape, training = self._cache
        grad_flat, _ = self._to_2d(np.asarray(grad_output, dtype=self.dtype))
        self.grads["gamma"] = (grad_flat * normalized).sum(axis=0)
        self.grads["beta"] = grad_flat.sum(axis=0)
        if not input_gradient:
            return None
        gamma = self.params["gamma"]
        if training:
            # Standard batch-norm backward through the batch statistics.
            dnorm = grad_flat * gamma
            dx = (
                dnorm
                - dnorm.mean(axis=0)
                - normalized * (dnorm * normalized).mean(axis=0)
            ) / std
        else:
            dx = grad_flat * gamma / std
        return self._from_2d(dx, shape)

    # -- stacked per-file path ---------------------------------------------
    @staticmethod
    def _to_stacked_2d(x: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
        if x.ndim == 3:
            return x, x.shape
        if x.ndim == 5:
            f, batch, channels, height, width = x.shape
            flat = x.transpose(0, 1, 3, 4, 2).reshape(f, -1, channels)
            return flat, x.shape
        raise ConfigurationError(
            f"stacked BatchNorm supports 3-D or 5-D inputs, got ndim={x.ndim}"
        )

    @staticmethod
    def _from_stacked_2d(flat: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        if len(shape) == 3:
            return flat
        f, batch, channels, height, width = shape
        return flat.reshape(f, batch, height, width, channels).transpose(0, 1, 4, 2, 3)

    def forward_per_file(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        flat, shape = self._to_stacked_2d(np.asarray(x, dtype=self.dtype))
        if flat.shape[2] != self.num_features:
            raise ConfigurationError(
                f"BatchNorm expected {self.num_features} features, got {flat.shape[2]}"
            )
        if training:
            # Each file normalizes with its own batch statistics, exactly as
            # the looped engine does; the running statistics are then updated
            # sequentially in file order so the end state is bit-identical.
            mean = flat.mean(axis=1)
            var = flat.var(axis=1)
            for i in range(flat.shape[0]):
                self.running_mean = (
                    self.momentum * self.running_mean + (1 - self.momentum) * mean[i]
                )
                self.running_var = (
                    self.momentum * self.running_var + (1 - self.momentum) * var[i]
                )
            std = np.sqrt(var + self.epsilon)[:, None, :]
            normalized = (flat - mean[:, None, :]) / std
        else:
            std = np.sqrt(self.running_var + self.epsilon)
            normalized = (flat - self.running_mean) / std
            std = np.broadcast_to(std, (flat.shape[0], 1, self.num_features))
        out = normalized * self.params["gamma"] + self.params["beta"]
        self._stacked = (normalized, std, shape, training)
        return self._from_stacked_2d(out, shape)

    def backward_per_file(
        self, grad_output: np.ndarray, grads_out: dict[str, np.ndarray], input_gradient: bool = True
    ) -> np.ndarray | None:
        normalized, std, shape, training = self._take_stacked()
        grad_flat, _ = self._to_stacked_2d(np.asarray(grad_output, dtype=self.dtype))
        grads_out["gamma"][...] = (grad_flat * normalized).sum(axis=1)
        grads_out["beta"][...] = grad_flat.sum(axis=1)
        if not input_gradient:
            return None
        gamma = self.params["gamma"]
        if training:
            dnorm = grad_flat * gamma
            dx = (
                dnorm
                - dnorm.mean(axis=1, keepdims=True)
                - normalized * (dnorm * normalized).mean(axis=1, keepdims=True)
            ) / std
        else:
            dx = grad_flat * gamma / std
        return self._from_stacked_2d(dx, shape)


def _im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> tuple[np.ndarray, int, int]:
    """Expand ``(N, C, H, W)`` into column form for convolution-as-matmul."""
    batch, channels, height, width = x.shape
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    padded = np.pad(
        x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
    )
    cols = np.empty((batch, channels, kernel, kernel, out_h, out_w), dtype=x.dtype)
    for ky in range(kernel):
        y_max = ky + stride * out_h
        for kx in range(kernel):
            x_max = kx + stride * out_w
            cols[:, :, ky, kx, :, :] = padded[:, :, ky:y_max:stride, kx:x_max:stride]
    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(batch * out_h * out_w, -1), out_h, out_w


def _col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Inverse of :func:`_im2col`, accumulating overlapping contributions."""
    batch, channels, height, width = input_shape
    cols = cols.reshape(batch, out_h, out_w, channels, kernel, kernel).transpose(
        0, 3, 4, 5, 1, 2
    )
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding), dtype=cols.dtype
    )
    for ky in range(kernel):
        y_max = ky + stride * out_h
        for kx in range(kernel):
            x_max = kx + stride * out_w
            padded[:, :, ky:y_max:stride, kx:x_max:stride] += cols[:, :, ky, kx, :, :]
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


class Conv2D(Layer):
    """2-D convolution implemented with im2col + matrix multiplication.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size:
        Square kernel side length.
    stride, padding:
        Standard convolution hyper-parameters.
    rng:
        Seed or generator for the He-normal kernel initialization.
    dtype:
        Working dtype of the kernel parameters; inputs are coerced to it.
    """

    per_file_capable = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        rng: int | np.random.Generator | None = 0,
        use_bias: bool = True,
        dtype: object | None = None,
    ) -> None:
        super().__init__()
        for name, value in (
            ("in_channels", in_channels),
            ("out_channels", out_channels),
            ("kernel_size", kernel_size),
            ("stride", stride),
        ):
            if value < 1:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        if padding < 0:
            raise ConfigurationError(f"padding must be non-negative, got {padding}")
        generator = as_generator(rng)
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        self.use_bias = bool(use_bias)
        self.dtype = resolve_dtype(dtype)
        fan_in = in_channels * kernel_size * kernel_size
        self.params["W"] = he_normal(
            (out_channels, in_channels, kernel_size, kernel_size),
            generator,
            fan_in=fan_in,
            dtype=self.dtype,
        )
        if use_bias:
            self.params["b"] = zeros_init((out_channels,), dtype=self.dtype)
        self.zero_grads()
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ConfigurationError(
                f"Conv2D expected input (batch, {self.in_channels}, H, W), got {x.shape}"
            )
        cols, out_h, out_w = _im2col(x, self.kernel_size, self.stride, self.padding)
        weights = self.params["W"].reshape(self.out_channels, -1)
        out = cols @ weights.T
        if self.use_bias:
            out += self.params["b"]
        batch = x.shape[0]
        out = out.reshape(batch, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        self._cache = (x.shape, cols, out_h, out_w)
        return out

    def backward(self, grad_output: np.ndarray, input_gradient: bool = True) -> np.ndarray | None:
        if self._cache is None:
            raise ConfigurationError("backward called before forward on Conv2D layer")
        input_shape, cols, out_h, out_w = self._cache
        batch = input_shape[0]
        grad = np.asarray(grad_output, dtype=self.dtype).transpose(0, 2, 3, 1).reshape(
            batch * out_h * out_w, self.out_channels
        )
        weights = self.params["W"].reshape(self.out_channels, -1)
        self.grads["W"] = (grad.T @ cols).reshape(self.params["W"].shape)
        if self.use_bias:
            self.grads["b"] = grad.sum(axis=0)
        if not input_gradient:
            return None
        grad_cols = grad @ weights
        return _col2im(
            grad_cols,
            input_shape,
            self.kernel_size,
            self.stride,
            self.padding,
            out_h,
            out_w,
        )

    # -- stacked per-file path ---------------------------------------------
    def forward_per_file(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 5 or x.shape[2] != self.in_channels:
            raise ConfigurationError(
                f"Conv2D expected stacked input (f, batch, {self.in_channels}, H, W), "
                f"got {x.shape}"
            )
        f, batch = x.shape[:2]
        # im2col is batch-major, so folding (f, n) into one batch axis yields
        # per-file blocks that reshape cleanly back to (f, n*oh*ow, ckk).
        cols, out_h, out_w = _im2col(
            x.reshape((f * batch,) + x.shape[2:]),
            self.kernel_size,
            self.stride,
            self.padding,
        )
        cols = cols.reshape(f, batch * out_h * out_w, -1)
        weights = self.params["W"].reshape(self.out_channels, -1)
        # (f, n*oh*ow, ckk) @ (ckk, oc): one BLAS call per file with the same
        # operand shapes as the plain path, keeping results bit-identical.
        out = cols @ weights.T
        if self.use_bias:
            out += self.params["b"]
        out = out.reshape(f, batch, out_h, out_w, self.out_channels)
        self._stacked = (x.shape, cols, out_h, out_w)
        return out.transpose(0, 1, 4, 2, 3)

    def backward_per_file(
        self, grad_output: np.ndarray, grads_out: dict[str, np.ndarray], input_gradient: bool = True
    ) -> np.ndarray | None:
        input_shape, cols, out_h, out_w = self._take_stacked()
        f, batch = input_shape[:2]
        grad = np.asarray(grad_output, dtype=self.dtype).transpose(0, 1, 3, 4, 2).reshape(
            f, batch * out_h * out_w, self.out_channels
        )
        weights = self.params["W"].reshape(self.out_channels, -1)
        grads_out["W"][...] = np.matmul(grad.transpose(0, 2, 1), cols).reshape(
            (f,) + self.params["W"].shape
        )
        if self.use_bias:
            grads_out["b"][...] = grad.sum(axis=1)
        if not input_gradient:
            return None
        grad_cols = grad @ weights
        grad_input = _col2im(
            grad_cols.reshape(f * batch * out_h * out_w, -1),
            (f * batch,) + input_shape[2:],
            self.kernel_size,
            self.stride,
            self.padding,
            out_h,
            out_w,
        )
        return grad_input.reshape(input_shape)


class MaxPool2D(Layer):
    """Non-overlapping max pooling with a square window.

    Parameters
    ----------
    pool_size:
        Window side; the spatial dimensions must be divisible by it.
    """

    per_file_capable = True

    def __init__(self, pool_size: int = 2) -> None:
        super().__init__()
        if pool_size < 1:
            raise ConfigurationError(f"pool_size must be positive, got {pool_size}")
        self.pool_size = int(pool_size)
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        x = ensure_float(x)
        if x.ndim != 4:
            raise ConfigurationError(f"MaxPool2D expects 4-D input, got ndim={x.ndim}")
        batch, channels, height, width = x.shape
        p = self.pool_size
        if height % p or width % p:
            raise ConfigurationError(
                f"spatial dims ({height}, {width}) must be divisible by pool_size={p}"
            )
        reshaped = x.reshape(batch, channels, height // p, p, width // p, p)
        out = reshaped.max(axis=(3, 5))
        mask = reshaped == out[:, :, :, None, :, None]
        self._cache = (x.shape, mask)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ConfigurationError("backward called before forward on MaxPool2D layer")
        input_shape, mask = self._cache
        batch, channels, height, width = input_shape
        grad = ensure_float(grad_output)[:, :, :, None, :, None]
        # Ties (equal maxima within a window) split the gradient evenly, which
        # keeps the backward pass a true subgradient.  The tie counts are cast
        # to the gradient dtype so float32 gradients stay float32 (the values
        # are small integers, so the cast — and the division — is exact).
        counts = mask.sum(axis=(3, 5), keepdims=True).astype(grad.dtype)
        spread = mask * grad / counts
        return spread.reshape(batch, channels, height, width)

    # -- stacked per-file path ---------------------------------------------
    def forward_per_file(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        x = ensure_float(x)
        if x.ndim != 5:
            raise ConfigurationError(
                f"stacked MaxPool2D expects 5-D input, got ndim={x.ndim}"
            )
        f, batch, channels, height, width = x.shape
        p = self.pool_size
        if height % p or width % p:
            raise ConfigurationError(
                f"spatial dims ({height}, {width}) must be divisible by pool_size={p}"
            )
        reshaped = x.reshape(f, batch, channels, height // p, p, width // p, p)
        out = reshaped.max(axis=(4, 6))
        mask = reshaped == out[:, :, :, :, None, :, None]
        self._stacked = (x.shape, mask)
        return out

    def backward_per_file(
        self, grad_output: np.ndarray, grads_out: dict[str, np.ndarray]
    ) -> np.ndarray:
        input_shape, mask = self._take_stacked()
        grad = ensure_float(grad_output)[:, :, :, :, None, :, None]
        counts = mask.sum(axis=(4, 6), keepdims=True).astype(grad.dtype)
        spread = mask * grad / counts
        return spread.reshape(input_shape)


class ResidualDenseBlock(Layer):
    """Two dense layers with ReLU and an identity skip connection.

    The block keeps its input width so the skip needs no projection; stacking
    these blocks gives the "ResNet-lite" model used as the stand-in for
    ResNet-18 (see DESIGN.md substitutions).
    """

    per_file_capable = True

    def __init__(
        self,
        width: int,
        rng: int | np.random.Generator | None = 0,
        dtype: object | None = None,
    ) -> None:
        super().__init__()
        generator = as_generator(rng)
        self.width = int(width)
        self.dtype = resolve_dtype(dtype)
        self.dense1 = Dense(width, width, rng=generator, dtype=self.dtype)
        self.dense2 = Dense(width, width, rng=generator, dtype=self.dtype)
        self.relu1 = ReLU()
        self.relu2 = ReLU()
        self._sync_params()

    def _sync_params(self) -> None:
        self.params = {
            "dense1.W": self.dense1.params["W"],
            "dense1.b": self.dense1.params["b"],
            "dense2.W": self.dense2.params["W"],
            "dense2.b": self.dense2.params["b"],
        }
        self.grads = {
            "dense1.W": self.dense1.grads["W"],
            "dense1.b": self.dense1.grads["b"],
            "dense2.W": self.dense2.grads["W"],
            "dense2.b": self.dense2.grads["b"],
        }

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        hidden = self.relu1.forward(self.dense1.forward(x, training), training)
        out = self.dense2.forward(hidden, training)
        return self.relu2.forward(out + x, training)

    def backward(self, grad_output: np.ndarray, input_gradient: bool = True) -> np.ndarray | None:
        grad = self.relu2.backward(grad_output)
        grad_branch = self.dense1.backward(
            self.relu1.backward(self.dense2.backward(grad)), input_gradient
        )
        self._sync_grads()
        return grad_branch + grad if input_gradient else None

    def _sync_grads(self) -> None:
        self.grads["dense1.W"] = self.dense1.grads["W"]
        self.grads["dense1.b"] = self.dense1.grads["b"]
        self.grads["dense2.W"] = self.dense2.grads["W"]
        self.grads["dense2.b"] = self.dense2.grads["b"]

    def zero_grads(self) -> None:
        self.dense1.zero_grads()
        self.dense2.zero_grads()
        self._sync_grads()

    # -- stacked per-file path ---------------------------------------------
    def forward_per_file(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        hidden = self.relu1.forward_per_file(
            self.dense1.forward_per_file(x, training), training
        )
        out = self.dense2.forward_per_file(hidden, training)
        out += x
        return self.relu2.forward_per_file(out, training)

    def backward_per_file(
        self, grad_output: np.ndarray, grads_out: dict[str, np.ndarray], input_gradient: bool = True
    ) -> np.ndarray | None:
        grads1 = {"W": grads_out["dense1.W"], "b": grads_out["dense1.b"]}
        grads2 = {"W": grads_out["dense2.W"], "b": grads_out["dense2.b"]}
        grad = self.relu2.backward_per_file(grad_output, {})
        grad_branch = self.dense1.backward_per_file(
            self.relu1.backward_per_file(
                self.dense2.backward_per_file(grad, grads2), {}
            ),
            grads1,
            input_gradient,
        )
        return np.add(grad_branch, grad, out=grad_branch) if input_gradient else None

    def release_per_file(self) -> None:
        for layer in (self.dense1, self.relu1, self.dense2, self.relu2):
            layer.release_per_file()
