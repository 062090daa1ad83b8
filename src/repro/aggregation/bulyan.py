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
from repro.aggregation.median import coordinate_median
from repro.core.vote_tensor import RowSelection
from repro.exceptions import AggregationError
from repro.utils.arrays import pairwise_squared_distances, reduction_blocks

__all__ = ["BulyanAggregator", "bulyan_selection"]

#: Coordinates per block of both passes (distances and trimming).  Per
#: block the trim holds the ``(block, theta)`` selected lanes and at most
#: two more blocks that size (their deviations and int64 order, or the
#: order and the ``(beta, block)`` flat indices and kept values): about
#: 0.24 MiB at n = 25, theta = 19.  Timed at n = 25, q = 3 on a selection
#: with three patched files, min of 15 in each of three processes, 2-core
#: Xeon: widths 256 / 512 / 1024 / 2048 /
#: 4096 take 10.8-13.0 / 9.8-11.1 / 8.7-9.1 / 8.7-10.6 / 11.4-13.3 ms at
#: d = 11k (the densifying 2048-wide kernel before them: 9.4-13.8).  512 is
#: the widest whose trim stays below the adaptive-bulyan-noniid round's
#: min-max payload stage and gradient pass (6.83 and 6.82 MiB with the
#: stage shims of ``tools/peak_stages.py``): 1024 puts the round's peak at
#: 6.95 and 2048 at 7.41 (EXPERIMENTS.md, "Kernel widths and budgets").
_LANE_BLOCK = 512


def bulyan_selection(
    votes: np.ndarray | RowSelection, num_byzantine: int, block_size: int | None = None
) -> list[int]:
    """Row indices of Bulyan's selection set, in the order Krum picked them.

    Iterated Krum: score the remaining votes, move the best-scored one into
    the selection, repeat ``theta = n − 2q`` times.  The pairwise distances
    never change between steps, so they are measured once (streamed when
    ``votes`` is a selection, its non-finite entries clamped per block) and
    every step scores the ``remaining x remaining`` sub-block.  (That
    sub-block need not equal the distance matrix of the gathered sub-matrix
    to the ulp — BLAS reduces the two in different orders — but the steps
    only rank.)
    """
    n = votes.shape[0]
    q = int(num_byzantine)
    theta = n - 2 * q
    distances = pairwise_squared_distances(
        votes, block_size=block_size, clamp_non_finite=True
    )
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


def _trimmed_lane_mean(
    lanes: np.ndarray, beta: int, lane_starts: np.ndarray, out: np.ndarray
) -> None:
    """Mean of the ``beta`` values of each ``(block, theta)`` lane closest to
    the lane's median, into ``out``.

    Each temporary is dropped before the next one is made, so beside
    ``lanes`` at most the deviations and their argsort are alive, then the
    argsort and the kept values' flat indices, then those and the kept
    values.  Both broadcasts write into arrays made for them: as
    expressions, ``lanes - median[:, None]`` and ``order.T + lane_starts``
    each allocated a scratch block beside their result.
    """
    median = coordinate_median(lanes.T)[:, None]
    deviation = np.subtract(lanes, median, out=np.empty_like(lanes))
    np.abs(deviation, out=deviation)
    order = np.argsort(deviation, axis=1)
    del deviation
    # Load-bearing for bit-identity: the kept values stay in
    # argsort-by-deviation order and are reduced over axis 0 of a
    # C-contiguous (beta, block) array, as the full-width (beta, d) one
    # would be.  Summing the lanes along axis 1, averaging a transposed view
    # or keeping a value-sorted window all reorder the additions and move
    # the last ulp.
    flat = np.ascontiguousarray(order[:, :beta].T)
    del order
    flat += lane_starts
    np.mean(np.take(lanes, flat), axis=0, out=out)


class BulyanAggregator(Aggregator):
    """Krum-based selection followed by a trimmed coordinate-wise average.

    Parameters
    ----------
    num_byzantine:
        Assumed number of Byzantine votes ``q``; the rule requires
        ``n >= 4q + 3`` candidates (any ``n >= 1`` when ``q = 0``, where it
        reduces to the mean).

    Both passes stream :data:`_LANE_BLOCK` coordinates at a time: the votes
    are read one transposed block at a time (:meth:`RowSelection.lanes`),
    so the width bounds the O(n · block) lane workspace.  The trim is
    per-coordinate and averages each block's kept values as one
    C-contiguous ``(beta, block)`` operand (at least 2 wide,
    :func:`~repro.utils.arrays.reduction_blocks`), so every width trims one
    selection to the same bits.  The selection ranks distances whose last
    ulp does depend on the width.
    """

    aggregator_name = "bulyan"
    streams_lanes = True

    def __init__(self, num_byzantine: int) -> None:
        if num_byzantine < 0:
            raise AggregationError(
                f"num_byzantine must be non-negative, got {num_byzantine}"
            )
        self.num_byzantine = int(num_byzantine)

    def minimum_votes(self) -> int:
        q = self.num_byzantine
        return 4 * q + 3 if q else 1

    def _aggregate(self, votes: RowSelection) -> np.ndarray:
        n, d = votes.shape
        q = self.num_byzantine
        selected = bulyan_selection(votes, q, block_size=_LANE_BLOCK)
        theta = len(selected)
        beta = theta - 2 * q
        # For each coordinate keep the beta values closest to the median.  A
        # block of the theta selected votes is read into contiguous lanes in
        # selection order, so the partition, the argsort and the take all run
        # along the fast axis.
        chosen_votes = votes.take(selected)
        rows = min(d, max(_LANE_BLOCK, 2) + 1)  # the widest block reduction_blocks yields
        chosen = np.empty((rows, theta), dtype=votes.dtype)
        lane_starts = np.arange(rows) * theta  # flat index of each lane's first vote
        out = np.empty(d, dtype=votes.dtype)
        for lo, hi in reduction_blocks(d, _LANE_BLOCK):
            lanes = chosen[: hi - lo]
            chosen_votes.lanes(lo, hi, lanes, clamp_non_finite=True)
            _trimmed_lane_mean(lanes, beta, lane_starts[: hi - lo], out[lo:hi])
        return out
