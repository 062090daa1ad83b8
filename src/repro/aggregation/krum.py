"""Krum and Multi-Krum (Blanchard et al., 2017; Damaskinos et al., 2019).

Krum scores each vote by the sum of squared distances to its ``n − q − 2``
nearest neighbours and selects the vote with the lowest score — intuitively
the gradient sitting in the densest honest cluster.  Multi-Krum selects the
``m`` best-scored votes and averages them, trading a little robustness for
lower variance.  Both require ``n >= 2q + 3`` candidates, which is why DETOX
cannot pair them with large ``q`` in the paper's experiments.
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.base import Aggregator
from repro.exceptions import AggregationError
from repro.utils.arrays import pairwise_squared_distances

__all__ = [
    "KrumAggregator",
    "MultiKrumAggregator",
    "krum_scores",
    "krum_scores_from_distances",
]


def krum_scores_from_distances(
    distances: np.ndarray, num_byzantine: int
) -> np.ndarray:
    """Krum scores from an ``(n, n)`` squared-distance matrix.

    The one scoring body of the Krum family: Krum and Multi-Krum reach it
    through :func:`krum_scores`, Bulyan calls it once per selection step on
    the ``remaining x remaining`` sub-block of a single distance matrix, and
    the Fang attack (:class:`~repro.attacks.adaptive.FangAdaptiveAttack`)
    scores each candidate payload of its Krum search with it.

    Raises
    ------
    AggregationError
        If ``n < 2q + 3`` (the selection rule is then undefined).
    """
    n = distances.shape[0]
    q = int(num_byzantine)
    if q < 0:
        raise AggregationError(f"num_byzantine must be non-negative, got {q}")
    if n < 2 * q + 3:
        raise AggregationError(
            f"Krum requires at least 2q+3={2 * q + 3} votes, got {n}"
        )
    closest = n - q - 2
    # Exclude self-distance (diagonal zero) by ignoring the first sorted column.
    ordered = np.sort(distances, axis=1)[:, 1 : closest + 1]
    return ordered.sum(axis=1)


def krum_scores(matrix: np.ndarray, num_byzantine: int) -> np.ndarray:
    """Krum score of each vote: sum of its ``n − q − 2`` smallest squared
    distances, from one Gram over the ``(n, d)`` matrix.

    Raises
    ------
    AggregationError
        If ``n < 2q + 3`` (the selection rule is then undefined).
    """
    return krum_scores_from_distances(pairwise_squared_distances(matrix), num_byzantine)


class KrumAggregator(Aggregator):
    """Select the single vote with the smallest Krum score.

    Parameters
    ----------
    num_byzantine:
        Assumed number of Byzantine votes ``q`` among the candidates.
    """

    aggregator_name = "krum"

    def __init__(self, num_byzantine: int) -> None:
        if num_byzantine < 0:
            raise AggregationError(
                f"num_byzantine must be non-negative, got {num_byzantine}"
            )
        self.num_byzantine = int(num_byzantine)

    def minimum_votes(self) -> int:
        return 2 * self.num_byzantine + 3

    def _aggregate(self, matrix: np.ndarray) -> np.ndarray:
        scores = krum_scores(matrix, self.num_byzantine)
        return matrix[int(np.argmin(scores))].copy()


class MultiKrumAggregator(Aggregator):
    """Average of the ``n − q − 2`` best-scored votes (at least one), the
    count the AggregaThor implementation uses.

    Parameters
    ----------
    num_byzantine:
        Assumed number of Byzantine votes ``q``.
    """

    aggregator_name = "multi_krum"

    def __init__(self, num_byzantine: int) -> None:
        if num_byzantine < 0:
            raise AggregationError(
                f"num_byzantine must be non-negative, got {num_byzantine}"
            )
        self.num_byzantine = int(num_byzantine)

    def minimum_votes(self) -> int:
        return 2 * self.num_byzantine + 3

    def _aggregate(self, matrix: np.ndarray) -> np.ndarray:
        scores = krum_scores(matrix, self.num_byzantine)
        k = max(1, matrix.shape[0] - self.num_byzantine - 2)
        selected = np.argsort(scores)[:k]
        return matrix[selected].mean(axis=0)
