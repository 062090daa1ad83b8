"""Bulyan (El Mhamdi et al., 2018).

Bulyan runs a selection rule (Krum here, as in the original paper) repeatedly
to build a selection set of ``theta = n − 2q`` votes, then applies a
coordinate-wise trimmed average around the median of that set (keeping
``beta = theta − 2q`` values per coordinate).  It defends against the
"hidden vulnerability" of Krum — a huge change in a single coordinate with
small Lp-norm footprint — but needs ``n >= 4q + 3`` votes, which makes it
inapplicable for the larger ``q`` regimes ByzShield still survives (a point
the paper's Figures 3 and 7 make explicitly).
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.base import Aggregator
from repro.aggregation.krum import krum_scores_from_distances
from repro.aggregation.majority import validate_block_size
from repro.aggregation.median import coordinate_median
from repro.exceptions import AggregationError
from repro.utils.arrays import block_ranges, pairwise_squared_distances

__all__ = ["BulyanAggregator", "bulyan_selection"]

#: Coordinates per trimming block when the caller names no ``block_size``.
#: At theta ~ 20 the three ``(block, theta)`` lane buffers (values,
#: deviations, int64 order) are ~1 MiB together; timed at n = 25 on
#: d = 11k and 20k, widths 512..4096 are within 10% of each other and 256,
#: 8192 and a single full-width block are 15-50% slower.  Not folded into
#: ``utils.arrays.LANE_BLOCK`` (4096, one buffer per block): with four
#: buffers per block that width timed the same here and put the K = 25
#: Bulyan round's peak at 12.97 MiB instead of 11.48.
_LANE_BLOCK = 2048


def bulyan_selection(
    matrix: np.ndarray, num_byzantine: int, block_size: int | None = None
) -> list[int]:
    """Row indices of Bulyan's selection set, in the order Krum picked them.

    Iterated Krum: score the remaining votes, move the best-scored one into
    the selection, repeat ``theta = n − 2q`` times.  The pairwise distances
    never change between steps, so they are measured once and every step
    scores the ``remaining x remaining`` sub-block.  (That sub-block need not
    equal the distance matrix of the gathered sub-matrix to the ulp — BLAS
    reduces the two in different orders — but the steps only rank.)
    """
    n = matrix.shape[0]
    q = int(num_byzantine)
    theta = n - 2 * q
    distances = pairwise_squared_distances(matrix, block_size=block_size)
    remaining = list(range(n))
    selected: list[int] = []
    while len(selected) < theta:
        if len(remaining) < 3:
            # Krum is undefined below three votes.  Only q = 0 gets here
            # (theta = n selects every row; for q >= 1 the last step still
            # scores 2q + 1 >= 3 rows): take the rest in index order.
            selected.extend(remaining)
            break
        # The Krum scoring needs at least 2q'+3 votes; late in the selection
        # fewer than 2q+3 remain, so the effective q' is clamped (standard
        # practice in Bulyan implementations).
        effective_q = min(q, (len(remaining) - 3) // 2)
        scores = krum_scores_from_distances(
            distances[np.ix_(remaining, remaining)], effective_q
        )
        selected.append(remaining.pop(int(np.argmin(scores))))
    return selected


class BulyanAggregator(Aggregator):
    """Krum-based selection followed by a trimmed coordinate-wise average.

    Parameters
    ----------
    num_byzantine:
        Assumed number of Byzantine votes ``q``; the rule requires
        ``n >= 4q + 3`` candidates (any ``n >= 1`` when ``q = 0``, where it
        reduces to the mean).
    block_size:
        Coordinate-block width of the trimming loop and of the distance
        accumulation; ``None`` (default) trims in internally sized blocks
        and measures the distances in one pass.  The width only bounds the
        O(theta · block) lane workspace: median, deviation, argsort and take
        are all per-coordinate and the kept values are averaged once, as one
        contiguous ``(beta, d)`` operand, so every width gives the same
        bits.  Block partial sums can shift a distance by an ulp, never the
        ranking-based selection.
    """

    aggregator_name = "bulyan"

    def __init__(self, num_byzantine: int, block_size: int | None = None) -> None:
        if num_byzantine < 0:
            raise AggregationError(
                f"num_byzantine must be non-negative, got {num_byzantine}"
            )
        self.num_byzantine = int(num_byzantine)
        self.block_size = validate_block_size(block_size)

    def minimum_votes(self, num_byzantine: int | None = None) -> int:
        q = self.num_byzantine if num_byzantine is None else num_byzantine
        return 4 * q + 3 if q else 1

    def _aggregate(self, matrix: np.ndarray) -> np.ndarray:
        n, d = matrix.shape
        q = self.num_byzantine
        if n < self.minimum_votes():
            raise AggregationError(
                f"Bulyan requires at least 4q+3={4 * q + 3} votes, got {n}"
            )
        selected = bulyan_selection(matrix, q, block_size=self.block_size)
        theta = len(selected)
        beta = theta - 2 * q
        # For each coordinate keep the beta values closest to the median.
        # A coordinate's theta selected votes sit a row stride apart in
        # ``matrix``; each block is gathered into contiguous lanes first, so
        # the partition, the argsort and the take all run along the fast axis.
        closest = np.empty((beta, d), dtype=matrix.dtype)
        for lo, hi in block_ranges(d, self.block_size or _LANE_BLOCK):
            lanes = matrix[selected, lo:hi].T.copy()
            deviation = lanes - coordinate_median(lanes.T)[:, None]
            np.abs(deviation, out=deviation)
            order = np.argsort(deviation, axis=1)[:, :beta]
            closest[:, lo:hi] = np.take_along_axis(lanes, order, axis=1).T
        # Load-bearing for bit-identity: the kept values stay in
        # argsort-by-deviation order and are reduced over axis 0 of one
        # C-contiguous (beta, d) array.  Summing the lanes along axis 1,
        # averaging a transposed view or keeping a value-sorted window all
        # reorder the additions and move the last ulp.
        return closest.mean(axis=0)
