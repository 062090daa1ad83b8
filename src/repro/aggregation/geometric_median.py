"""Geometric median via Weiszfeld's algorithm (Chen et al., 2017; Minsker, 2015).

The geometric median minimizes the sum of Euclidean distances to the votes
and has a breakdown point of 1/2.  The smoothed Weiszfeld iteration below is
the standard fixed-point scheme with a small regularizer to avoid division by
zero when the iterate lands on a data point.
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.base import Aggregator
from repro.core.backend import ensure_float
from repro.exceptions import AggregationError

__all__ = ["GeometricMedianAggregator", "geometric_median"]

#: Weiszfeld iterations before the last iterate is returned unconverged
_MAX_ITERATIONS = 200
#: convergence: a step of at most this times ``1 + ||estimate||``
_TOLERANCE = 1e-10
#: floor of a row's distance, so an iterate on a data point divides by it
_SMOOTHING = 1e-12


def geometric_median(matrix: np.ndarray) -> np.ndarray:
    """Weiszfeld fixed-point iteration for the geometric median of the rows."""
    matrix = ensure_float(matrix)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise AggregationError("geometric median needs a non-empty (n, d) matrix")
    estimate = matrix.mean(axis=0)
    for _ in range(_MAX_ITERATIONS):
        distances = np.linalg.norm(matrix - estimate, axis=1)
        weights = 1.0 / np.maximum(distances, _SMOOTHING)
        new_estimate = (weights[:, None] * matrix).sum(axis=0) / weights.sum()
        if np.linalg.norm(new_estimate - estimate) <= _TOLERANCE * (
            1.0 + np.linalg.norm(estimate)
        ):
            return new_estimate
        estimate = new_estimate
    return estimate


class GeometricMedianAggregator(Aggregator):
    """Geometric median of the votes (1/2 breakdown point, rotation invariant)."""

    aggregator_name = "geometric_median"

    def _aggregate(self, matrix: np.ndarray) -> np.ndarray:
        return geometric_median(matrix)
