"""Paper Algorithm 1: the one aggregation pipeline of every scheme.

A *pipeline* turns the per-(worker, file) gradients returned to the PS in
one iteration — a :class:`~repro.core.vote_tensor.VoteTensor` holding
exactly the copies the assignment graph prescribes — into the single
gradient used for the model update: validate the slot layout, majority-vote
every file, reduce the winners with a robust rule.  It returns both halves
of that as a :class:`RoundOutcome`.

ByzShield, DETOX, DRACO and the undefended baseline are this one algorithm
over different assignments, which is why the paper compares them by
``c_max`` alone (Tables 3–6):

* ByzShield — an expander assignment (MOLS, Ramanujan) with a robust rule
  (coordinate-wise median by default) over the ``f`` voted gradients;
* DETOX — an FRC assignment (one file per worker, groups of ``r``) with a
  robust rule over the group winners;
* DRACO — an FRC assignment whose winners are averaged
  (:class:`~repro.aggregation.mean.MeanAggregator`), exact only while
  ``r >= 2q + 1``;
* the baseline — ``l = r = 1``: every file is decided by its one copy, so
  the rule sees the ``K`` worker gradients.

A scenario's ``pipeline.kind`` names which of these a run is; it only picks
the refusals :meth:`~repro.scenarios.runner.ScenarioRunner.check` makes
before it builds this class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aggregation.base import Aggregator
from repro.aggregation.majority import (
    majority_vote_votetensor,
    validate_block_size,
)
from repro.aggregation.median import CoordinateWiseMedian
from repro.core.vote_tensor import RowSelection, VoteTensor
from repro.exceptions import AggregationError
from repro.graphs.bipartite import BipartiteAssignment

__all__ = ["RoundOutcome", "AggregationPipeline"]


def _validate_vote_tensor(expected: np.ndarray, tensor: VoteTensor) -> None:
    """Check the tensor's slot layout matches the expected ``(f, r)`` matrix."""
    if tensor.workers.shape != expected.shape or not np.array_equal(
        tensor.workers, expected
    ):
        raise AggregationError(
            f"vote tensor slot layout {tensor.workers.shape} does not match "
            f"the assignment ({expected.shape[0]} files x {expected.shape[1]} "
            "replicas)"
        )


def _checked_arrival_mask(tensor: VoteTensor, arrived: np.ndarray) -> np.ndarray:
    """Validate an ``(f, r)`` arrival mask."""
    arrived = np.asarray(arrived, dtype=bool)
    if arrived.shape != tensor.workers.shape:
        raise AggregationError(
            f"arrival mask has shape {arrived.shape}, expected "
            f"{tensor.workers.shape}"
        )
    return arrived


@dataclass(frozen=True)
class RoundOutcome:
    """What one aggregation computed, handed back instead of dropped.

    The PS votes every file once per round (paper Algorithm 1); whoever
    wants to look at that vote afterwards — the scenario trace — reads it
    here rather than running it again.  Nothing keeps an outcome between
    rounds: it lives as long as its caller holds it.

    Attributes
    ----------
    aggregate:
        The ``(d,)`` update direction — the pipeline's aggregator applied
        to ``winners``.
    winners:
        The ``(n, d)`` rows the aggregator saw: one majority winner per
        decided file (at ``r = 1``, that is each arrived worker's raw row).  A read-only
        :class:`~repro.core.vote_tensor.RowSelection`, not an array: it
        references the round's honest matrix and holds only the
        rows that differ from it, so it is valid until the next round is
        computed, and the run loop digests it through ``winner_refs`` instead
        of densifying it.
    content_ids:
        The ``(f, r)`` canonical content ids the vote classed the tensor
        into (:func:`~repro.aggregation.majority.override_content_ids`):
        0 = bit-equal to the file's honest base row, the other ids numbered
        by first appearance in C order.
    winner_refs:
        ``(n, 2)`` int64: row ``i`` of ``winners`` is ``(file, content
        id)`` — the file's slot content it holds.
    counts:
        ``(f,)`` accepted copies behind each file's winner; 0 for a file
        that abstained (no class of ``r'`` accepted copies) and so has no
        row in ``winners``.
    """

    aggregate: np.ndarray
    winners: RowSelection
    content_ids: np.ndarray
    winner_refs: np.ndarray
    counts: np.ndarray


class AggregationPipeline:
    """Validate the slot layout, vote every file, reduce the winners.

    Parameters
    ----------
    assignment:
        Worker/file assignment graph the votes must conform to;
        :meth:`aggregate_tensor` checks every round's slot layout against it.
        Any replication ``r`` votes by ``r' = r // 2 + 1``; at even ``r`` a
        file whose copies split into two tied halves abstains.  Scenarios
        refuse an even ``r`` in the runner's ``check()``.
    aggregator:
        Robust rule applied to the voted gradients (coordinate-wise median,
        the paper's choice, when ``None``; Bulyan, Multi-Krum, the mean, ...).
        It is looked up on the pipeline at every round.
    block_size:
        Optional coordinate-block width streamed through the majority-vote
        kernel, capping its peak temporaries at ``O(rows . block)`` while
        staying bit-identical.  ``None`` is not a separate kernel: the same
        loops run at an internal width.
    """

    def __init__(
        self,
        assignment: BipartiteAssignment,
        aggregator: Aggregator | None = None,
        block_size: int | None = None,
    ) -> None:
        self.assignment = assignment
        self.aggregator = aggregator if aggregator is not None else CoordinateWiseMedian()
        self.block_size = validate_block_size(block_size)
        self._expected_slots = assignment.worker_slot_matrix()

    def aggregate_tensor(
        self, tensor: VoteTensor, arrived: np.ndarray | None = None
    ) -> RoundOutcome:
        """Aggregate one iteration's returns into an update direction.

        Returns the :class:`RoundOutcome` of the round: the ``(d,)``
        aggregate and the post-vote matrix it was reduced from.  That matrix,
        ``winners``, is the ``(n, d)`` rows the aggregator saw — the per-file
        majority winners (at ``r = 1``, the raw worker gradients) — as a
        :class:`~repro.core.vote_tensor.RowSelection` over the tensor's
        honest base: no ``(n, d)`` matrix is built here; the robust rule
        either streams it or densifies it once, in
        :meth:`Aggregator.__call__ <repro.aggregation.base.Aggregator.__call__>`.
        Scenario traces digest it per round to pin the voting stage
        independently of the robust aggregation that follows.

        ``arrived`` is the ``(f, r)`` bool mask of the copies the PS
        accepted this round; ``None`` means every copy arrived.  A copy
        that did not arrive does not vote.  A file is decided only when
        ``r'`` of its accepted copies agree, and otherwise abstains and has
        no winner, so the robust stage sees only the decided files.  A round
        with no decided file aggregates to a zero update.
        """
        _validate_vote_tensor(self._expected_slots, tensor)
        if arrived is not None:
            arrived = _checked_arrival_mask(tensor, arrived)
        vote = majority_vote_votetensor(tensor, block_size=self.block_size, arrived=arrived)
        winners = vote.winners
        return RoundOutcome(
            aggregate=(
                self.aggregator(winners)
                if winners.shape[0]
                else np.zeros(winners.shape[1], dtype=winners.dtype)
            ),
            winners=winners,
            content_ids=vote.content_ids,
            winner_refs=vote.winner_refs,
            counts=vote.counts,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(assignment={self.assignment.name!r})"
