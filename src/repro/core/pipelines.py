"""Gradient-aggregation pipelines evaluated in the paper.

A *pipeline* turns the per-(worker, file) gradients returned to the PS in
one iteration — a :class:`~repro.core.vote_tensor.VoteTensor` holding
exactly the copies the assignment graph prescribes — into the single
gradient used for the model update: validate the slot layout, majority-vote
every file, reduce the winners.  The base class owns that sequence and
returns both halves of it as a :class:`RoundOutcome`; a concrete pipeline
contributes its constructor checks and its post-vote reducer.

Pipelines implemented:

* :class:`ByzShieldPipeline` — Algorithm 1: per-file majority vote followed by
  a robust aggregator (coordinate-wise median by default) over the ``f``
  winning gradients.
* :class:`DetoxPipeline` — FRC grouping with per-group majority vote followed
  by a second-stage robust aggregation (median-of-means, Multi-Krum, signSGD,
  ...) over the group winners.
* :class:`DracoPipeline` — FRC grouping with the DRACO exact-recovery
  requirement ``r >= 2q + 1``; refuses to run when the bound is violated and
  otherwise averages the group majority winners.
* :class:`VanillaPipeline` — no redundancy: the robust aggregator is applied
  directly to the ``K`` worker gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aggregation.base import Aggregator
from repro.aggregation.majority import (
    majority_vote_votetensor,
    validate_block_size,
)
from repro.aggregation.mean import MeanAggregator
from repro.aggregation.median import CoordinateWiseMedian
from repro.core.vote_tensor import RowSelection, VoteTensor
from repro.exceptions import AggregationError, ConfigurationError
from repro.graphs.bipartite import BipartiteAssignment

__all__ = [
    "RoundOutcome",
    "AggregationPipeline",
    "ByzShieldPipeline",
    "DetoxPipeline",
    "DracoPipeline",
    "VanillaPipeline",
]


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
        The ``(d,)`` update direction — the pipeline's reducer applied to
        ``winners``.
    winners:
        The ``(n, d)`` rows the reducer saw: one majority winner per decided
        file (for the vanilla pipeline, ``r = 1``, that is each arrived
        worker's raw row).  A read-only
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
    """Base class: validate the slot layout, vote every file, reduce the winners.

    Parameters
    ----------
    assignment:
        Worker/file assignment graph the votes must conform to;
        :meth:`aggregate_tensor` checks every round's slot layout against it.
    block_size:
        Optional coordinate-block width streamed through the majority-vote
        kernel, capping its peak temporaries at ``O(rows . block)`` while
        staying bit-identical.  ``None`` is not a separate kernel: the same
        loops run at an internal width.
    """

    pipeline_name = "abstract"

    def __init__(
        self,
        assignment: BipartiteAssignment,
        block_size: int | None = None,
    ) -> None:
        self.assignment = assignment
        self.block_size = validate_block_size(block_size)
        self._expected_slots: np.ndarray | None = None

    def _expected_slot_matrix(self) -> np.ndarray:
        """The assignment's ``(f, r)`` slot layout, pinned on the pipeline.

        Resolved once on first validation; per-round validation then touches
        only this local reference (no assignment lookup or regularity check).
        """
        if self._expected_slots is None:
            self._expected_slots = self.assignment.worker_slot_matrix()
        return self._expected_slots

    # -- interface -------------------------------------------------------------
    def aggregate_tensor(
        self, tensor: VoteTensor, arrived: np.ndarray | None = None
    ) -> RoundOutcome:
        """Aggregate one iteration's returns into an update direction.

        Returns the :class:`RoundOutcome` of the round: the ``(d,)``
        aggregate and the post-vote matrix it was reduced from.  That matrix,
        ``winners``, is the ``(n, d)`` rows the reducer saw — the per-file
        majority winners (for the vanilla pipeline's ``r = 1``, the raw
        worker gradients) — as a :class:`~repro.core.vote_tensor.RowSelection`
        over the tensor's honest base: no ``(n, d)`` matrix is built here;
        the robust rule either streams it or densifies it once, in
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
        _validate_vote_tensor(self._expected_slot_matrix(), tensor)
        if arrived is not None:
            arrived = _checked_arrival_mask(tensor, arrived)
        vote = majority_vote_votetensor(tensor, block_size=self.block_size, arrived=arrived)
        winners = vote.winners
        return RoundOutcome(
            aggregate=(
                self._reduce(winners)
                if winners.shape[0]
                else np.zeros(winners.shape[1], dtype=winners.dtype)
            ),
            winners=winners,
            content_ids=vote.content_ids,
            winner_refs=vote.winner_refs,
            counts=vote.counts,
        )

    def _reduce(self, voted: RowSelection) -> np.ndarray:
        """The pipeline's post-vote reducer: ``(n, d)`` winners -> ``(d,)``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(assignment={self.assignment.name!r})"


class ByzShieldPipeline(AggregationPipeline):
    """Paper Algorithm 1: per-file majority vote + robust aggregation.

    Parameters
    ----------
    assignment:
        Any redundant assignment (MOLS, Ramanujan, ...); replication must be
        odd so the majority cannot tie.
    aggregator:
        Robust rule applied to the ``f`` voted gradients; the paper uses
        coordinate-wise median, but Bulyan / Multi-Krum are supported too.
    """

    pipeline_name = "byzshield"

    def __init__(
        self,
        assignment: BipartiteAssignment,
        aggregator: Aggregator | None = None,
        block_size: int | None = None,
    ) -> None:
        super().__init__(assignment, block_size=block_size)
        if assignment.replication % 2 == 0:
            raise ConfigurationError(
                "ByzShield majority voting requires an odd replication factor, "
                f"got r={assignment.replication}"
            )
        self.aggregator = aggregator if aggregator is not None else CoordinateWiseMedian()

    def _reduce(self, voted: RowSelection) -> np.ndarray:
        return self.aggregator(voted)


class DetoxPipeline(AggregationPipeline):
    """DETOX: FRC grouping, per-group vote, then hierarchical robust aggregation.

    Parameters
    ----------
    assignment:
        An FRC assignment (each worker holds exactly one file and each file is
        held by one group of ``r`` workers).
    aggregator:
        Second-stage robust rule over the group winners (median-of-means in
        the paper's "DETOX-MoM", Multi-Krum in "DETOX-Multi-Krum", ...).
    """

    pipeline_name = "detox"

    def __init__(
        self,
        assignment: BipartiteAssignment,
        aggregator: Aggregator | None = None,
        block_size: int | None = None,
    ) -> None:
        super().__init__(assignment, block_size=block_size)
        if assignment.computational_load != 1:
            raise ConfigurationError(
                "DETOX expects an FRC assignment where every worker holds exactly "
                f"one file; got load={assignment.computational_load}"
            )
        if assignment.replication % 2 == 0:
            raise ConfigurationError(
                f"DETOX majority voting requires odd group size, got r={assignment.replication}"
            )
        self.aggregator = aggregator if aggregator is not None else CoordinateWiseMedian()

    def _reduce(self, voted: RowSelection) -> np.ndarray:
        return self.aggregator(voted)


class DracoPipeline(AggregationPipeline):
    """DRACO: FRC grouping with the information-theoretic ``r >= 2q + 1`` bound.

    DRACO guarantees *exact* recovery (the output equals the attack-free
    gradient) but only when every group has an honest majority of at least
    ``q + 1``, i.e. ``r >= 2q + 1``.  :meth:`aggregate_tensor` raises when
    the declared Byzantine budget violates the bound, reproducing the paper's
    observation that DRACO "is not applicable if it is violated".
    """

    pipeline_name = "draco"

    def __init__(
        self,
        assignment: BipartiteAssignment,
        num_byzantine: int,
        block_size: int | None = None,
    ) -> None:
        super().__init__(assignment, block_size=block_size)
        if assignment.computational_load != 1:
            raise ConfigurationError(
                "DRACO expects an FRC assignment (one file per worker); got load="
                f"{assignment.computational_load}"
            )
        if num_byzantine < 0:
            raise ConfigurationError(
                f"num_byzantine must be non-negative, got {num_byzantine}"
            )
        self.num_byzantine = int(num_byzantine)
        self._mean = MeanAggregator()

    @property
    def is_applicable(self) -> bool:
        """True when ``r >= 2q + 1`` so exact recovery is guaranteed."""
        return self.assignment.replication >= 2 * self.num_byzantine + 1

    def _reduce(self, voted: RowSelection) -> np.ndarray:
        if not self.is_applicable:
            raise AggregationError(
                f"DRACO requires r >= 2q+1 (r={self.assignment.replication}, "
                f"q={self.num_byzantine}); the scheme is not applicable"
            )
        return self._mean(voted)


class VanillaPipeline(AggregationPipeline):
    """No redundancy: the robust aggregator sees the ``K`` raw worker gradients."""

    pipeline_name = "vanilla"

    def __init__(
        self,
        assignment: BipartiteAssignment,
        aggregator: Aggregator,
        block_size: int | None = None,
    ) -> None:
        if block_size is not None:
            raise ConfigurationError(
                "the vanilla pipeline (r = 1) has no vote kernel to stream; pass "
                "block_size to the robust aggregator instead (aggregator_params)"
            )
        super().__init__(assignment)
        if assignment.replication != 1 or assignment.computational_load != 1:
            raise ConfigurationError(
                "VanillaPipeline expects the baseline assignment with l = r = 1"
            )
        self.aggregator = aggregator

    def _reduce(self, voted: RowSelection) -> np.ndarray:
        return self.aggregator(voted)
