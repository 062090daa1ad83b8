"""Trimmed mean / mean-around-median (Xie et al., 2018; Yin et al., 2018).

For every coordinate the votes are sorted and the ``trim`` largest and
``trim`` smallest values are discarded before averaging — equivalently, the
average of the values closest to the median is returned.  With ``trim >= q``
a single corrupted coordinate cannot move the estimate outside the range of
the honest values.
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.base import Aggregator
from repro.aggregation.majority import validate_block_size
from repro.exceptions import AggregationError
from repro.utils.arrays import block_ranges

__all__ = ["TrimmedMeanAggregator"]


class TrimmedMeanAggregator(Aggregator):
    """Coordinate-wise mean after trimming ``trim`` extremes on each side.

    Parameters
    ----------
    trim:
        Number of values removed from each end of every coordinate's sorted
        list; usually set to the number of Byzantine workers ``q``.
    block_size:
        ``None`` (default) sorts all ``d`` coordinates at once.  A positive
        width streams coordinate blocks through an O(n · block) sort
        workspace instead of the O(n · d) full-matrix sort.  The surviving
        middle values are assembled into the same contiguous ``(n − 2·trim,
        d)`` operand the monolithic path averages, so the final reduction is
        bit-identical by construction (NumPy's reduction tree is sensitive
        to operand width, so averaging per block would NOT be — measured,
        not hypothetical).
    """

    aggregator_name = "trimmed_mean"

    def __init__(self, trim: int, block_size: int | None = None) -> None:
        if trim < 0:
            raise AggregationError(f"trim must be non-negative, got {trim}")
        self.trim = int(trim)
        self.block_size = validate_block_size(block_size)

    def minimum_votes(self, num_byzantine: int | None = None) -> int:
        trim = self.trim if num_byzantine is None else num_byzantine
        return 2 * trim + 1

    def _aggregate(self, matrix: np.ndarray) -> np.ndarray:
        n, d = matrix.shape
        if n <= 2 * self.trim:
            raise AggregationError(
                f"trimmed mean with trim={self.trim} needs more than "
                f"{2 * self.trim} votes, got {n}"
            )
        if self.trim == 0:
            return matrix.mean(axis=0)
        if self.block_size is None or self.block_size >= d:
            ordered = np.sort(matrix, axis=0)
            return ordered[self.trim : n - self.trim].mean(axis=0)
        trimmed = np.empty((n - 2 * self.trim, d), dtype=matrix.dtype)
        for lo, hi in block_ranges(d, self.block_size):
            ordered = np.sort(matrix[:, lo:hi], axis=0)
            trimmed[:, lo:hi] = ordered[self.trim : n - self.trim]
        return trimmed.mean(axis=0)
