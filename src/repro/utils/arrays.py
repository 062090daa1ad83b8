"""Array helpers shared by the aggregators, the attacks, the model and the data.

Gradients travel through the system as flat float vectors; these helpers
stack them into matrices, walk a matrix in coordinate blocks, and provide
the vectorized column statistics and the distance computation the attacks
and the Krum family use.  All helpers preserve the supported working dtypes
(``float32``/``float64``) instead of promoting to ``float64`` — see
:mod:`repro.core.backend` — and coerce anything else to the backend default.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.backend import ensure_float

__all__ = [
    "stack_vectors",
    "pairwise_squared_distances",
    "block_ranges",
    "column_mean_std",
    "LANE_BLOCK",
]

#: Coordinates per block of the kernels that always stream (the coordinate
#: median, the vote's row comparison and hashes, :func:`column_mean_std`)
#: when their caller names no ``block_size``.  At n = 25 float64 one
#: ``(n, block)`` buffer is 0.8 MiB.  Timed at 25 x 94k, min of 15, widths
#: 1024 to 16384: the median is flat within 5%, the vote is 10% slower from
#: 8192 up, and ``column_mean_std`` is 25-35% faster at 4096 than at 2048 or
#: 8192.
LANE_BLOCK = 4096


def block_ranges(d: int, block_size: int | None):
    """Yield the ``[lo, hi)`` coordinate blocks covering dimension ``d``.

    ``None`` (or a width >= ``d``) yields the single full range — callers can
    therefore write one streaming loop that also covers the monolithic case.
    """
    if block_size is None or block_size >= d:
        yield 0, d
        return
    for lo in range(0, d, block_size):
        yield lo, min(lo + block_size, d)


def column_mean_std(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and population standard deviation of an ``(n, d)`` matrix.

    Bit-identical to ``(matrix.mean(axis=0), matrix.std(axis=0))`` — it is
    NumPy's own recipe, ufunc for ufunc, with the mean computed once and
    ``std``'s centred ``(n, d)`` copy replaced by one reused
    ``(n, LANE_BLOCK + 1)`` buffer.  Every step is per-column, so the block
    width cannot change a bit, with one exception: a block of width 1
    reduces pairwise along its (strided) column instead of row by row, which
    moves the last ulp from n = 8 up.  A width-1 tail is therefore folded
    into the block before it.
    """
    matrix = ensure_float(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={matrix.ndim}")
    n, d = matrix.shape
    count = np.intp(n)
    mean = np.empty(d, dtype=matrix.dtype)
    std = np.empty(d, dtype=matrix.dtype)
    # Laid out like the matrix, as the copy NumPy's ``_var`` centres into is.
    centred = np.empty_like(matrix[:, : LANE_BLOCK + 1])
    for lo in range(0, max(d - 1, 1), LANE_BLOCK):
        hi = lo + LANE_BLOCK
        if hi >= d - 1:
            hi = d
        block, block_mean, block_std = matrix[:, lo:hi], mean[lo:hi], std[lo:hi]
        deviation = centred[:, : hi - lo]
        np.add.reduce(block, axis=0, out=block_mean)
        np.true_divide(block_mean, count, out=block_mean, casting="unsafe")
        np.subtract(block, block_mean, out=deviation)
        np.square(deviation, out=deviation)
        np.add.reduce(deviation, axis=0, out=block_std)
        np.true_divide(block_std, count, out=block_std, casting="unsafe")
        np.sqrt(block_std, out=block_std)
    return mean, std


def stack_vectors(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Stack 1-D vectors into an ``(n, d)`` float matrix with validation."""
    if len(vectors) == 0:
        raise ValueError("cannot stack an empty sequence of vectors")
    mats = [ensure_float(v).ravel() for v in vectors]
    d = mats[0].size
    for i, m in enumerate(mats):
        if m.size != d:
            raise ValueError(
                f"vector {i} has dimension {m.size}, expected {d} (all votes "
                "must have identical dimensionality)"
            )
    return np.vstack(mats)


def pairwise_squared_distances(
    matrix: np.ndarray, block_size: int | None = None
) -> np.ndarray:
    """Compute the ``(n, n)`` matrix of squared Euclidean distances.

    Uses the ``||x||² + ||y||² − 2·x·y`` identity so the whole computation is
    a single matrix multiplication; numerical noise is clipped at zero.

    With ``block_size`` set, the norms and the Gram matrix accumulate over
    coordinate blocks so the peak temporary is O(n² + n · block).  The block
    partial sums can differ from the monolithic reduction in the last ulp;
    Krum-family consumers only rank the distances, so their *selection* (and
    hence their output rows) stays identical — the per-aggregator bit-identity
    property tests pin this down.
    """
    matrix = ensure_float(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={matrix.ndim}")
    n, d = matrix.shape
    # A row clamped to +-1e30 (Aggregator.__call__'s stand-in for +-inf)
    # squares past float32's range: its distances come out inf or NaN, both
    # of which sort after every finite distance, so such a row is never a
    # near neighbour.  That is the intended reading, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if block_size is None or block_size >= d:
            norms = np.einsum("ij,ij->i", matrix, matrix)
            gram = matrix @ matrix.T
        else:
            norms = np.zeros(n, dtype=matrix.dtype)
            gram = np.zeros((n, n), dtype=matrix.dtype)
            for lo, hi in block_ranges(d, block_size):
                block = matrix[:, lo:hi]
                norms += np.einsum("ij,ij->i", block, block)
                gram += block @ block.T
        sq = norms[:, None] + norms[None, :] - 2.0 * gram
        np.maximum(sq, 0.0, out=sq)
    np.fill_diagonal(sq, 0.0)
    return sq
