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
from repro.exceptions import AggregationError

__all__ = ["TrimmedMeanAggregator"]


class TrimmedMeanAggregator(Aggregator):
    """Coordinate-wise mean after trimming ``trim`` extremes on each side.

    Parameters
    ----------
    trim:
        Number of values removed from each end of every coordinate's sorted
        list; usually set to the number of Byzantine workers ``q``.
    """

    aggregator_name = "trimmed_mean"

    def __init__(self, trim: int) -> None:
        if trim < 0:
            raise AggregationError(f"trim must be non-negative, got {trim}")
        self.trim = int(trim)

    def minimum_votes(self) -> int:
        return 2 * self.trim + 1

    def _aggregate(self, matrix: np.ndarray) -> np.ndarray:
        n = matrix.shape[0]
        if self.trim == 0:
            return matrix.mean(axis=0)
        ordered = np.sort(matrix, axis=0)
        return ordered[self.trim : n - self.trim].mean(axis=0)
