"""Aggregator interface."""

from __future__ import annotations

import abc

import numpy as np

from repro.core.backend import ensure_float
from repro.exceptions import AggregationError
from repro.utils.arrays import stack_vectors

__all__ = ["Aggregator"]


class Aggregator(abc.ABC):
    """A rule turning ``n`` candidate gradients into one.

    Subclasses implement :meth:`_aggregate` on a validated ``(n, d)`` float
    matrix; :meth:`__call__` handles input normalization (lists of vectors are
    accepted) and sanity checks.  ``float32``/``float64`` inputs keep their
    dtype through the rule; everything else is coerced to the backend default.
    """

    #: registry name; subclasses override
    aggregator_name: str = "abstract"

    def minimum_votes(self, num_byzantine: int | None = None) -> int:
        """Smallest number of candidate gradients for which the rule is defined.

        ``num_byzantine=None`` asks about the rule as configured; a value asks
        what it would need at that ``q``.  The default is ``1``; Krum-family
        rules override this with their breakdown-point requirements (e.g.
        Bulyan needs ``4q + 3`` votes).  The scenario runner compares it with
        the rows a full round hands the rule, so an inapplicable
        configuration is refused when it is built, not in round 0.
        """
        return 1

    def __call__(self, votes) -> np.ndarray:
        if isinstance(votes, np.ndarray):
            if votes.ndim != 2:
                raise AggregationError(
                    f"votes must form a 2-D (n, d) matrix, got ndim={votes.ndim}"
                )
            if votes.shape[0] == 0:
                raise AggregationError("cannot aggregate zero votes")
            matrix = votes
        else:
            try:
                matrix = stack_vectors(votes)
            except ValueError as exc:
                raise AggregationError(str(exc)) from exc
        matrix = ensure_float(matrix)
        if not np.all(np.isfinite(matrix)):
            # Byzantine workers may send NaN/Inf; robust rules must not crash,
            # so replace non-finite entries by large-magnitude finite values
            # that the robust statistics will discard.
            matrix = np.nan_to_num(matrix, nan=0.0, posinf=1e30, neginf=-1e30)
        return self._aggregate(matrix)

    @abc.abstractmethod
    def _aggregate(self, matrix: np.ndarray) -> np.ndarray:
        """Aggregate a validated ``(n, d)`` matrix into a ``(d,)`` vector."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"
