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
from repro.aggregation.majority import validate_block_size
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
    the ``remaining x remaining`` sub-block of a single distance matrix.

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


def krum_scores(
    matrix: np.ndarray, num_byzantine: int, block_size: int | None = None
) -> np.ndarray:
    """Krum score of each vote: sum of its ``n − q − 2`` smallest squared distances.

    With ``block_size`` set, the pairwise distances accumulate over
    coordinate blocks (O(n² + n · block) workspace); the block partial sums
    can shift a distance by an ulp, but Krum only *ranks* the distances, so
    the selected rows — and therefore the aggregate — do not move.

    Raises
    ------
    AggregationError
        If ``n < 2q + 3`` (the selection rule is then undefined).
    """
    return krum_scores_from_distances(
        pairwise_squared_distances(matrix, block_size=block_size), num_byzantine
    )


class KrumAggregator(Aggregator):
    """Select the single vote with the smallest Krum score.

    Parameters
    ----------
    num_byzantine:
        Assumed number of Byzantine votes ``q`` among the candidates.
    block_size:
        Optional coordinate-block width for the distance accumulation
        (see :func:`krum_scores`); ``None`` keeps the monolithic pass.
    """

    aggregator_name = "krum"

    def __init__(self, num_byzantine: int, block_size: int | None = None) -> None:
        if num_byzantine < 0:
            raise AggregationError(
                f"num_byzantine must be non-negative, got {num_byzantine}"
            )
        self.num_byzantine = int(num_byzantine)
        self.block_size = validate_block_size(block_size)

    def minimum_votes(self, num_byzantine: int | None = None) -> int:
        q = self.num_byzantine if num_byzantine is None else num_byzantine
        return 2 * q + 3

    def _aggregate(self, matrix: np.ndarray) -> np.ndarray:
        scores = krum_scores(matrix, self.num_byzantine, block_size=self.block_size)
        return matrix[int(np.argmin(scores))].copy()


class MultiKrumAggregator(Aggregator):
    """Average of the ``multi_k`` best-scored votes.

    Parameters
    ----------
    num_byzantine:
        Assumed number of Byzantine votes ``q``.
    multi_k:
        How many of the best-scored votes to average; the common choice
        (and the default) is ``n − q − 2`` computed at call time, which the
        AggregaThor implementation uses.
    block_size:
        Optional coordinate-block width for the distance accumulation
        (see :func:`krum_scores`); the final average runs on the same
        gathered ``(k, d)`` operand either way, so equal selections give
        bit-identical aggregates.
    """

    aggregator_name = "multi_krum"

    def __init__(
        self,
        num_byzantine: int,
        multi_k: int | None = None,
        block_size: int | None = None,
    ) -> None:
        if num_byzantine < 0:
            raise AggregationError(
                f"num_byzantine must be non-negative, got {num_byzantine}"
            )
        if multi_k is not None and multi_k < 1:
            raise AggregationError(f"multi_k must be >= 1, got {multi_k}")
        self.num_byzantine = int(num_byzantine)
        self.multi_k = None if multi_k is None else int(multi_k)
        self.block_size = validate_block_size(block_size)

    def minimum_votes(self, num_byzantine: int | None = None) -> int:
        q = self.num_byzantine if num_byzantine is None else num_byzantine
        return 2 * q + 3

    def _aggregate(self, matrix: np.ndarray) -> np.ndarray:
        scores = krum_scores(matrix, self.num_byzantine, block_size=self.block_size)
        n = matrix.shape[0]
        k = self.multi_k if self.multi_k is not None else max(1, n - self.num_byzantine - 2)
        k = min(k, n)
        selected = np.argsort(scores)[:k]
        return matrix[selected].mean(axis=0)
