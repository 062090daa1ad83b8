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
from repro.core.vote_tensor import RowSelection
from repro.utils.arrays import LANE_BLOCK, block_ranges

__all__ = ["CoordinateWiseMedian", "coordinate_median"]


def coordinate_median(
    votes: np.ndarray | RowSelection, clamp_non_finite: bool = False
) -> np.ndarray:
    """Per-column median of ``(n, d)`` votes, on contiguous lanes.

    ``np.median``'s own recipe — partition at the middle rank(s), then
    ``np.mean`` over the middle slice (which also maps a -0.0 median to
    +0.0) — so the result is bit-identical to ``np.median(matrix, axis=0)``.
    Each coordinate block is transposed into one reused ``(LANE_BLOCK, n)``
    buffer (:meth:`RowSelection.lanes`; a plain matrix is a selection with
    nothing patched), so a coordinate's ``n`` votes are adjacent instead of
    a row stride apart and neither a ``(d, n)`` copy nor the dense matrix
    of a selection exists.  ``np.median``'s extra NaN probe rank is dropped:
    the votes must be finite, or ``clamp_non_finite`` set — each block is
    then tested in the buffer and given :meth:`Aggregator.__call__`'s
    substitutions (NaN -> 0, +-inf -> +-1e30), which is bit-identical to
    clamping the whole matrix first.
    """
    votes = RowSelection.of(votes)
    n, d = votes.shape
    middle = slice((n - 1) // 2, n // 2 + 1)
    ranks = list(range(middle.start, middle.stop))
    out = np.empty(d, dtype=votes.dtype)
    buffer = np.empty((min(d, LANE_BLOCK), n), dtype=votes.dtype)
    for lo, hi in block_ranges(d, LANE_BLOCK):
        lanes = buffer[: hi - lo]
        votes.lanes(lo, hi, lanes)
        if clamp_non_finite and not np.isfinite(lanes).all():
            np.nan_to_num(lanes, copy=False, nan=0.0, posinf=1e30, neginf=-1e30)
        lanes.partition(ranks, axis=1)
        np.mean(lanes[:, middle], axis=1, out=out[lo:hi])
    return out


class CoordinateWiseMedian(Aggregator):
    """Per-dimension median of the votes, streamed from the vote's selection."""

    aggregator_name = "median"
    streams_lanes = True

    def _aggregate(self, matrix: np.ndarray | RowSelection) -> np.ndarray:
        return coordinate_median(matrix, clamp_non_finite=True)
