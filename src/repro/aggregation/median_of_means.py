"""Median-of-means (Minsker, 2015; used by DETOX as its robust stage).

Votes are partitioned into ``num_groups`` buckets, each bucket is averaged,
and the coordinate-wise median of the bucket means is returned.  DETOX applies
this to the majority-voted group gradients; the baseline version applies it
directly to the worker gradients.
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.base import Aggregator
from repro.utils.validation import check_positive_int

__all__ = ["MedianOfMeansAggregator"]


class MedianOfMeansAggregator(Aggregator):
    """Coordinate-wise median of per-bucket means.

    Parameters
    ----------
    num_groups:
        Number of buckets; the votes are dealt into buckets round-robin in
        their given order.  Values larger than the number of votes degrade
        gracefully to one vote per bucket.
    """

    aggregator_name = "median_of_means"

    def __init__(self, num_groups: int) -> None:
        self.num_groups = check_positive_int(num_groups, "num_groups")

    @staticmethod
    def _bucket_means(matrix: np.ndarray, groups: int) -> np.ndarray:
        """``(groups, d)`` round-robin bucket means of an ``(n, d)`` matrix.

        The per-bucket reduction is deliberate: batching the buckets into a
        single ``(m, groups, d)`` reduction changes NumPy's pairwise-summation
        tree and perturbs the means in the last ulp (measured, not
        hypothetical — ``m = 8, d = 1`` already differs), which would break
        the recorded golden traces.  ``groups`` is tiny, so the loop costs
        nothing.
        """
        means = np.empty((groups, matrix.shape[1]), dtype=matrix.dtype)
        for g in range(groups):
            means[g] = matrix[g::groups].mean(axis=0)
        return means

    def _aggregate(self, matrix: np.ndarray) -> np.ndarray:
        groups = min(self.num_groups, matrix.shape[0])
        return np.median(self._bucket_means(matrix, groups), axis=0)
