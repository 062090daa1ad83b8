"""Gradient compression operators.

Each compressor maps a flat gradient to the dense vector the receiver
reconstructs from its compressed form.  Decompression happens eagerly (the
simulator works on dense vectors), and no wire size is modelled.  The round
path calls :meth:`Compressor.compress_matrix` on the whole ``(f, d)``
gradient matrix; the per-row :meth:`Compressor.compress` is its reference.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.backend import ensure_float
from repro.exceptions import ConfigurationError
from repro.utils.registry import Registry

__all__ = [
    "Compressor",
    "SignCompressor",
    "TopKCompressor",
    "available_compressors",
    "create_compressor",
]


class Compressor(abc.ABC):
    """A (possibly lossy) gradient compression operator."""

    #: registry name; subclasses override
    compressor_name: str = "abstract"

    @abc.abstractmethod
    def compress(self, gradient: np.ndarray) -> np.ndarray:
        """Compress a flat gradient and return the reconstructed vector."""

    def __call__(self, gradient: np.ndarray) -> np.ndarray:
        gradient = ensure_float(gradient).ravel()
        if gradient.size == 0:
            raise ConfigurationError("cannot compress an empty gradient")
        return self.compress(gradient)

    @abc.abstractmethod
    def compress_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Decompressed reconstructions of all rows of an ``(f, d)`` matrix,
        in one vectorized call; row ``i`` is bit-identical to
        ``self(matrix[i])``."""

    @staticmethod
    def _check_matrix(matrix: np.ndarray) -> np.ndarray:
        matrix = ensure_float(matrix)
        if matrix.ndim != 2:
            raise ConfigurationError(
                f"compress_matrix expects an (f, d) matrix, got shape {matrix.shape}"
            )
        if matrix.shape[0] == 0 or matrix.shape[1] == 0:
            raise ConfigurationError("cannot compress an empty gradient matrix")
        return matrix


class SignCompressor(Compressor):
    """1-bit sign quantization with a single per-message scale.

    The reconstruction is ``scale * sign(g)`` where ``scale`` is the mean
    absolute value of the gradient (the standard scaled-sign estimator).
    """

    compressor_name = "sign"

    def compress(self, gradient: np.ndarray) -> np.ndarray:
        scale = float(np.mean(np.abs(gradient)))
        return scale * np.sign(gradient)

    def compress_matrix(self, matrix: np.ndarray) -> np.ndarray:
        matrix = self._check_matrix(matrix)
        scales = np.mean(np.abs(matrix), axis=1)
        return scales[:, None] * np.sign(matrix)


class TopKCompressor(Compressor):
    """Keep the ``k`` largest-magnitude coordinates (biased sparsification).

    Parameters
    ----------
    fraction:
        Fraction of coordinates kept, in (0, 1]; at least one coordinate is
        always transmitted.
    """

    compressor_name = "topk"

    def __init__(self, fraction: float) -> None:
        if not (0.0 < fraction <= 1.0):
            raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = float(fraction)

    def _k(self, dim: int) -> int:
        return max(1, int(round(self.fraction * dim)))

    def compress(self, gradient: np.ndarray) -> np.ndarray:
        k = self._k(gradient.size)
        keep = np.argsort(np.abs(gradient))[-k:]
        vector = np.zeros_like(gradient)
        vector[keep] = gradient[keep]
        return vector

    def compress_matrix(self, matrix: np.ndarray) -> np.ndarray:
        matrix = self._check_matrix(matrix)
        k = self._k(matrix.shape[1])
        # Row-wise argsort uses the same sort as the 1-D path, so the kept
        # index sets (ties included) match the per-row calls exactly.
        keep = np.argsort(np.abs(matrix), axis=1)[:, -k:]
        rows = np.arange(matrix.shape[0])[:, None]
        out = np.zeros_like(matrix)
        out[rows, keep] = matrix[rows, keep]
        return out


#: scenario specs refer to compressors by their ``compressor_name``
_COMPRESSORS: Registry[Compressor] = Registry(
    "compressor",
    Compressor,
    "compressor_name",
    (
        SignCompressor,
        TopKCompressor,
    ),
)

available_compressors = _COMPRESSORS.names
create_compressor = _COMPRESSORS.create
