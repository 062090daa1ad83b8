"""Neural-network layers with explicit forward/backward passes.

Every layer stores its learnable parameters in ``self.params`` and the
gradients of the last backward pass in ``self.grads`` (same keys).  The
forward pass caches whatever the backward pass needs; layers are therefore
stateful within one forward/backward round trip, exactly as a worker uses
them when computing its file gradients.

Inputs are ``(batch, features)``.  The substrate is the multi-layer
perceptron every scenario builds (:func:`repro.nn.models.build_mlp`):
:class:`Dense` and :class:`ReLU`.

Per-file stacked path
---------------------

Workers compute ``f`` independent file gradients per round.  Every layer
also implements a *stacked* path operating on inputs with a leading file
axis — ``(f, batch, features)`` — so one pass through the stack computes all
``f`` forward/backward sweeps at once:

* :meth:`Layer.forward_per_file` maps ``(f, n, ...)`` to ``(f, n, ...)``;
* :meth:`Layer.backward_per_file` maps the stacked output gradient back to the
  stacked input gradient and writes per-file parameter gradients of shape
  ``(f, *param.shape)`` into caller-provided arrays (views into one
  preallocated ``(f, d)`` workspace — see
  :meth:`repro.nn.models.Sequential.per_file_loss_and_gradients`).

Ownership: no forward pass writes into its input (the caller's batch), but
``backward_per_file`` may write into
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
``m``-dimension.  The plain path (:meth:`Layer.forward` / :meth:`Layer.backward`)
is the looped engine the stacked one is tested against.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.backend import resolve_dtype
from repro.exceptions import ConfigurationError
from repro.nn.initializers import he_normal, zeros_init
from repro.utils.rng import as_generator

__all__ = ["Layer", "Dense", "ReLU"]


class Layer(abc.ABC):
    """Base class: a differentiable transformation with optional parameters."""

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        #: what ``forward_per_file`` keeps for ``backward_per_file``
        self._stacked = None

    @abc.abstractmethod
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer output for input ``x``."""

    @abc.abstractmethod
    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate ``dL/d(output)`` and return ``dL/d(input)``.

        Parameter gradients are accumulated into ``self.grads``.  A layer with
        parameters also takes ``input_gradient=False`` and then returns ``None``.
        """

    # -- stacked per-file path ---------------------------------------------
    @abc.abstractmethod
    def forward_per_file(self, x: np.ndarray) -> np.ndarray:
        """Forward pass over stacked inputs ``(f, n, ...)``; see module docs."""

    @abc.abstractmethod
    def backward_per_file(
        self, grad_output: np.ndarray, grads_out: dict[str, np.ndarray]
    ) -> np.ndarray:
        """Stacked backward pass; per-file parameter gradients go to ``grads_out``.

        ``grads_out`` maps each parameter name to a ``(f, *param.shape)``
        array (typically a view into the engine's shared workspace) that the
        layer must write in full.
        """

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

    def forward(self, x: np.ndarray) -> np.ndarray:
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

    def forward_per_file(self, x: np.ndarray) -> np.ndarray:
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

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return _rectify(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ConfigurationError("backward called before forward on ReLU layer")
        return grad_output * self._mask

    # Elementwise, so the plain rules apply — in place on the pass's own gradient.
    def forward_per_file(self, x: np.ndarray) -> np.ndarray:
        self._stacked = x > 0
        return _rectify(x)

    def backward_per_file(
        self, grad_output: np.ndarray, grads_out: dict[str, np.ndarray]
    ) -> np.ndarray:
        return np.multiply(grad_output, self._take_stacked(), out=grad_output)
