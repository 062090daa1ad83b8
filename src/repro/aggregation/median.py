"""Coordinate-wise median (Yin et al., 2018/2019).

This is the robust aggregator ByzShield pairs with its majority vote
(Algorithm 1, lines 14–17 followed by the model update).  Each gradient
dimension is treated independently and the median of the ``n`` votes is
returned; it tolerates strictly fewer than half corrupted votes per
coordinate.
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.base import Aggregator
from repro.utils.arrays import LANE_BLOCK, block_ranges

__all__ = ["CoordinateWiseMedian", "coordinate_median"]


def coordinate_median(matrix: np.ndarray) -> np.ndarray:
    """Per-column median of a finite ``(n, d)`` matrix, on contiguous lanes.

    ``np.median``'s own recipe — partition at the middle rank(s), then
    ``np.mean`` over the middle slice (which also maps a -0.0 median to
    +0.0) — so the result is bit-identical to ``np.median(matrix, axis=0)``.
    Each coordinate block is transposed into one reused ``(LANE_BLOCK, n)``
    buffer, so a coordinate's ``n`` votes are adjacent instead of a row
    stride apart and no ``(d, n)`` copy exists; ``np.median``'s extra NaN
    probe rank is dropped: :meth:`Aggregator.__call__` has already replaced
    non-finite entries.
    """
    n, d = matrix.shape
    middle = slice((n - 1) // 2, n // 2 + 1)
    ranks = list(range(middle.start, middle.stop))
    out = np.empty(d, dtype=matrix.dtype)
    buffer = np.empty((min(d, LANE_BLOCK), n), dtype=matrix.dtype)
    for lo, hi in block_ranges(d, LANE_BLOCK):
        lanes = buffer[: hi - lo]
        np.copyto(lanes, matrix[:, lo:hi].T)
        lanes.partition(ranks, axis=1)
        np.mean(lanes[:, middle], axis=1, out=out[lo:hi])
    return out


class CoordinateWiseMedian(Aggregator):
    """Per-dimension median of the votes."""

    aggregator_name = "median"

    def _aggregate(self, matrix: np.ndarray) -> np.ndarray:
        return coordinate_median(matrix)
