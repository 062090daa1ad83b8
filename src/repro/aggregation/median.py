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

__all__ = ["CoordinateWiseMedian", "coordinate_median"]


def coordinate_median(matrix: np.ndarray) -> np.ndarray:
    """Per-column median of a finite ``(n, d)`` matrix, on contiguous lanes.

    ``np.median``'s own recipe — partition at the middle rank(s), then
    ``np.mean`` over the middle slice (which also maps a -0.0 median to
    +0.0) — so the result is bit-identical to ``np.median(matrix, axis=0)``.
    Run on a contiguous transposed copy, each coordinate's ``n`` votes are
    adjacent instead of a row stride apart, and ``np.median``'s extra NaN
    probe rank is dropped: :meth:`Aggregator.__call__` has already replaced
    non-finite entries.
    """
    n = matrix.shape[0]
    lanes = matrix.T.copy()
    middle = slice((n - 1) // 2, n // 2 + 1)
    lanes.partition(list(range(middle.start, middle.stop)), axis=1)
    return np.mean(lanes[:, middle], axis=1)


class CoordinateWiseMedian(Aggregator):
    """Per-dimension median of the votes."""

    aggregator_name = "median"

    def _aggregate(self, matrix: np.ndarray) -> np.ndarray:
        return coordinate_median(matrix)
