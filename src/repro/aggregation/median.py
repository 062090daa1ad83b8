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
from repro.utils.arrays import block_ranges

__all__ = ["CoordinateWiseMedian", "coordinate_median"]

#: Coordinates per lane block of :func:`coordinate_median`.  At n = 25
#: float64 its ``(block, n)`` buffer is 0.2 MiB, a quarter of a
#: ``utils.arrays.LANE_BLOCK``-wide one, which set the peak of the
#: paper-headline round.  Clamped, min of 7 interleaved in each of three
#: processes, 2-core Xeon, in ms against 4096: 15.5–18.2 vs 16.7–17.2 on
#: 25 x 94,218 float64, 1.4–2.1 vs 1.5–1.9 on 25 x 11,274 float64 and
#: 1.9–2.0 vs 1.7–1.8 on float32.  The round's time stayed inside its spread.
_LANE_BLOCK = 1024


def coordinate_median(
    votes: np.ndarray | RowSelection, clamp_non_finite: bool = False
) -> np.ndarray:
    """Per-column median of ``(n, d)`` votes, on contiguous lanes.

    ``np.median``'s own recipe — the middle rank(s), then ``np.mean``'s sum
    from +0.0 (which also maps a -0.0 median to +0.0) and division — so the
    result is bit-identical to ``np.median(matrix, axis=0)``.  Each
    coordinate block is transposed into one reused ``(_LANE_BLOCK, f)``
    buffer with a lane per row of the selection's base
    (:meth:`RowSelection.lanes` with ``per_base_row``; a plain matrix is a
    selection with nothing patched), so a coordinate's votes are adjacent instead of a
    row stride apart and neither a ``(d, n)`` copy, the dense matrix of a
    selection nor a gathered slice of its rows exists.  The ``m = f - n``
    rows the selection leaves out (abstaining files) read ``-inf``, below
    every vote, so the lanes are partitioned at the one rank ``n // 2 + m``:
    for an even ``n`` (an abstaining file leaves one) the lower middle is
    the largest lane value below it, a column loop of ``np.maximum`` into a
    ``(block, 2)`` pair — a second rank would cost the partition 4-5x.  A
    selection leaving out more rows than it keeps would pay for their lanes;
    the vote's leaves out at most the files that abstained.
    ``np.median``'s extra NaN probe rank is dropped: the votes must be
    finite, or ``clamp_non_finite`` set — each block is then tested in the
    buffer and given :meth:`Aggregator.__call__`'s substitutions (NaN -> 0,
    +-inf -> +-1e30) by :meth:`RowSelection.lanes`, which is bit-identical to
    clamping the whole matrix first.
    """
    votes = RowSelection.of(votes)
    n, d = votes.shape
    # One lane per base row: the m rows the selection leaves out read -inf,
    # below every (clamped or finite) vote, so rank k + m is the votes' rank k.
    width = votes.base.shape[0]
    k = n // 2 + width - n
    out = np.empty(d, dtype=votes.dtype)
    buffer = np.empty((min(d, _LANE_BLOCK), width), dtype=votes.dtype)
    pair = np.empty((min(d, _LANE_BLOCK), 2), dtype=votes.dtype) if n % 2 == 0 else None
    two = votes.dtype.type(2)
    for lo, hi in block_ranges(d, _LANE_BLOCK):
        lanes = buffer[: hi - lo]
        votes.lanes(lo, hi, lanes, clamp_non_finite, per_base_row=True)
        lanes.partition(k, axis=1)
        middle = lanes[:, k : k + 1]
        if pair is not None:
            middle = pair[: hi - lo]
            middle[:] = lanes[:, k - 1 : k + 1]
            for j in range(k - 1):
                np.maximum(middle[:, 0], lanes[:, j], out=middle[:, 0])
        # ``np.mean``'s recipe: the sum from +0.0, then the division, by a
        # count in the votes' dtype (``np.mean``'s integer count divides a
        # float32 block through float64 cast buffers, to the same bits).
        total = out[lo:hi]
        np.add.reduce(middle, axis=1, out=total)
        if pair is not None:
            np.true_divide(total, two, out=total)
    return out


class CoordinateWiseMedian(Aggregator):
    """Per-dimension median of the votes, streamed from the vote's selection."""

    aggregator_name = "median"
    streams_lanes = True

    def _aggregate(self, matrix: np.ndarray | RowSelection) -> np.ndarray:
        return coordinate_median(matrix, clamp_non_finite=True)
