"""Gradient compression operators.

Each compressor maps a flat gradient to a :class:`CompressedGradient` — the
decompressed vector plus an estimate of the number of bits that would travel
over the wire — so the cluster cost model can compare the communication cost
of compressed ByzShield against the uncompressed baseline of Figure 12.
Decompression happens eagerly (the simulator works on dense vectors); the
``bits`` field is what the communication model consumes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.backend import ensure_float
from repro.exceptions import ConfigurationError
from repro.utils.registry import Registry
from repro.utils.rng import as_generator

__all__ = [
    "CompressedGradient",
    "Compressor",
    "IdentityCompressor",
    "SignCompressor",
    "TopKCompressor",
    "RandomKCompressor",
    "QuantizedCompressor",
    "available_compressors",
    "create_compressor",
]

_FLOAT_BITS = 64
_INDEX_BITS = 32


@dataclass(frozen=True)
class CompressedGradient:
    """Result of compressing one gradient.

    Attributes
    ----------
    vector:
        The decompressed (dense) gradient the receiver reconstructs.
    bits:
        Estimated wire size of the compressed representation.
    """

    vector: np.ndarray
    bits: float

    @property
    def compression_ratio(self) -> float:
        """Uncompressed bits divided by compressed bits (>= 1 is a saving)."""
        dense_bits = self.vector.size * _FLOAT_BITS
        return dense_bits / self.bits if self.bits > 0 else float("inf")


class Compressor(abc.ABC):
    """A (possibly lossy) gradient compression operator."""

    #: registry name; subclasses override
    compressor_name: str = "abstract"

    @abc.abstractmethod
    def compress(self, gradient: np.ndarray) -> CompressedGradient:
        """Compress a flat gradient and return the reconstruction + wire size."""

    def __call__(self, gradient: np.ndarray) -> CompressedGradient:
        gradient = ensure_float(gradient).ravel()
        if gradient.size == 0:
            raise ConfigurationError("cannot compress an empty gradient")
        return self.compress(gradient)

    def compress_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Decompressed reconstructions of all rows of an ``(f, d)`` matrix.

        The default compresses row by row (preserving the RNG draw order of
        stochastic compressors); deterministic compressors override it with
        one vectorized call.  Row ``i`` of the result is bit-identical to
        ``self(matrix[i]).vector``.
        """
        matrix = self._check_matrix(matrix)
        return np.vstack([self(matrix[i]).vector for i in range(matrix.shape[0])])

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


class IdentityCompressor(Compressor):
    """No-op compressor (the uncompressed baseline)."""

    compressor_name = "identity"

    def compress(self, gradient: np.ndarray) -> CompressedGradient:
        return CompressedGradient(gradient.copy(), bits=gradient.size * _FLOAT_BITS)

    def compress_matrix(self, matrix: np.ndarray) -> np.ndarray:
        return self._check_matrix(matrix).copy()


class SignCompressor(Compressor):
    """1-bit sign quantization with a single per-message scale.

    The reconstruction is ``scale * sign(g)`` where ``scale`` is the mean
    absolute value of the gradient (the standard scaled-sign estimator); the
    wire cost is one bit per coordinate plus one float for the scale.
    """

    compressor_name = "sign"

    def compress(self, gradient: np.ndarray) -> CompressedGradient:
        scale = float(np.mean(np.abs(gradient)))
        vector = scale * np.sign(gradient)
        bits = gradient.size * 1 + _FLOAT_BITS
        return CompressedGradient(vector, bits=float(bits))

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

    def compress(self, gradient: np.ndarray) -> CompressedGradient:
        k = self._k(gradient.size)
        keep = np.argsort(np.abs(gradient))[-k:]
        vector = np.zeros_like(gradient)
        vector[keep] = gradient[keep]
        bits = k * (_FLOAT_BITS + _INDEX_BITS)
        return CompressedGradient(vector, bits=float(bits))

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


class RandomKCompressor(Compressor):
    """Keep ``k`` uniformly random coordinates, rescaled to stay unbiased.

    Parameters
    ----------
    fraction:
        Fraction of coordinates kept.
    seed:
        Seed (or generator) for the coordinate selection.
    """

    compressor_name = "randomk"

    def __init__(self, fraction: float, seed: int | np.random.Generator | None = 0) -> None:
        if not (0.0 < fraction <= 1.0):
            raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = float(fraction)
        self._rng = as_generator(seed)

    def compress(self, gradient: np.ndarray) -> CompressedGradient:
        dim = gradient.size
        k = max(1, int(round(self.fraction * dim)))
        keep = self._rng.choice(dim, size=k, replace=False)
        vector = np.zeros_like(gradient)
        # Rescale by dim/k so the estimator is unbiased in expectation.
        vector[keep] = gradient[keep] * (dim / k)
        bits = k * (_FLOAT_BITS + _INDEX_BITS)
        return CompressedGradient(vector, bits=float(bits))


class QuantizedCompressor(Compressor):
    """Uniform b-bit stochastic quantization of the normalized gradient (QSGD).

    Coordinates are quantized to ``2**bits_per_coordinate`` levels of
    ``|g_i| / ||g||_inf`` with stochastic rounding (unbiased), keeping the sign
    separately.

    Parameters
    ----------
    bits_per_coordinate:
        Number of bits per quantized magnitude (1–16).
    seed:
        Seed for the stochastic rounding.
    """

    compressor_name = "quantized"

    def __init__(
        self, bits_per_coordinate: int = 4, seed: int | np.random.Generator | None = 0
    ) -> None:
        if not (1 <= int(bits_per_coordinate) <= 16):
            raise ConfigurationError(
                f"bits_per_coordinate must be in [1, 16], got {bits_per_coordinate}"
            )
        self.bits_per_coordinate = int(bits_per_coordinate)
        self._rng = as_generator(seed)

    def compress(self, gradient: np.ndarray) -> CompressedGradient:
        norm = float(np.max(np.abs(gradient)))
        if norm == 0.0:
            return CompressedGradient(
                np.zeros_like(gradient),
                bits=float(gradient.size * (self.bits_per_coordinate + 1) + _FLOAT_BITS),
            )
        levels = 2**self.bits_per_coordinate - 1
        scaled = np.abs(gradient) / norm * levels
        lower = np.floor(scaled)
        probability = scaled - lower
        rounded = lower + (self._rng.random(gradient.size) < probability)
        vector = np.sign(gradient) * rounded / levels * norm
        bits = gradient.size * (self.bits_per_coordinate + 1) + _FLOAT_BITS
        return CompressedGradient(vector, bits=float(bits))


#: scenario specs refer to compressors by their ``compressor_name``
_COMPRESSORS: Registry[Compressor] = Registry(
    "compressor",
    Compressor,
    "compressor_name",
    (
        IdentityCompressor,
        SignCompressor,
        TopKCompressor,
        RandomKCompressor,
        QuantizedCompressor,
    ),
)

available_compressors = _COMPRESSORS.names
create_compressor = _COMPRESSORS.create
