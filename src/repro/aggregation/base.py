"""Aggregator interface."""

from __future__ import annotations

import abc

import numpy as np

from repro.core.backend import ensure_float
from repro.core.vote_tensor import RowSelection
from repro.exceptions import AggregationError
from repro.utils.arrays import stack_vectors

__all__ = ["Aggregator"]


class Aggregator(abc.ABC):
    """A rule turning ``n`` candidate gradients into one.

    Subclasses implement :meth:`_aggregate` on a validated ``(n, d)`` float
    matrix; :meth:`__call__` handles input normalization (lists of vectors
    and the vote's :class:`~repro.core.vote_tensor.RowSelection` are
    accepted) and sanity checks.  ``float32``/``float64`` inputs keep their
    dtype through the rule; everything else is coerced to the backend default.
    The matrix is read-only on every path — it may be the round's shared
    honest gradients — so a rule that writes into it fails with NumPy's
    ``ValueError`` instead of corrupting the next reader.
    """

    #: registry name; subclasses override
    aggregator_name: str = "abstract"

    #: True for a rule that reads its votes one coordinate block at a time
    #: (:meth:`RowSelection.lanes`) and replaces non-finite entries there;
    #: its :meth:`_aggregate` is handed the selection, never a dense matrix.
    streams_lanes: bool = False

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
        """Aggregate ``votes``: an ``(n, d)`` matrix, a sequence of ``(d,)``
        vectors, or the :class:`~repro.core.vote_tensor.RowSelection` a
        pipeline's vote returned.

        Byzantine workers may send NaN/Inf; robust rules must not crash, so
        non-finite entries are replaced by finite stand-ins the robust
        statistics will discard (NaN -> 0, +-inf -> +-1e30).  A rule that
        :attr:`streams_lanes` does that block by block and never sees the
        whole matrix; for every other rule this is where a selection is
        densified — once, the copy the vote used to make.
        """
        if isinstance(votes, RowSelection):
            selection = votes
        elif isinstance(votes, np.ndarray):
            if votes.ndim != 2:
                raise AggregationError(
                    f"votes must form a 2-D (n, d) matrix, got ndim={votes.ndim}"
                )
            selection = RowSelection(ensure_float(votes))
        else:
            try:
                selection = RowSelection(stack_vectors(votes))
            except ValueError as exc:
                raise AggregationError(str(exc)) from exc
        if selection.shape[0] == 0:
            raise AggregationError("cannot aggregate zero votes")
        if self.streams_lanes:
            return self._aggregate(selection)
        matrix = selection.densified()  # repro-lint: disable=COW-001 (the one densification point: rules that rank, trim or average whole rows need the (n, d) matrix)
        if not np.all(np.isfinite(matrix)):
            matrix = np.nan_to_num(matrix, nan=0.0, posinf=1e30, neginf=-1e30)
            matrix.setflags(write=False)
        return self._aggregate(matrix)

    @abc.abstractmethod
    def _aggregate(self, matrix: np.ndarray) -> np.ndarray:
        """Aggregate a validated, finite, read-only ``(n, d)`` matrix into a
        ``(d,)`` vector (the unclamped selection itself under
        :attr:`streams_lanes`)."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"
