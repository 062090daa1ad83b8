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
    majority_vote_tensor,
    majority_vote_votetensor,
    validate_block_size,
    validate_tolerance,
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
    """Validate a partial-aggregation ``(f, r)`` arrival mask."""
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
        The ``(n, d)`` rows the reducer saw: per-file majority winners for
        the voting pipelines, the arrived raw worker rows for the vanilla
        one (see :meth:`AggregationPipeline.post_vote_matrix`).  A
        read-only :class:`~repro.core.vote_tensor.RowSelection`, not an
        array: it references the round's honest matrix and holds only the
        rows that differ from it, so it is valid until the next round is
        computed, and an observer streams it (``array_digest``,
        ``row_runs()``) instead of densifying it.
    """

    aggregate: np.ndarray
    winners: RowSelection


class AggregationPipeline:
    """Base class: validate the slot layout, vote every file, reduce the winners.

    Parameters
    ----------
    assignment:
        Worker/file assignment graph the votes must conform to.
    validate:
        Whether :meth:`aggregate_tensor` verifies that the votes match the
        assignment (disable in tight loops once the driver is trusted).
    topology:
        Optional :class:`~repro.cluster.topology.GroupTopology`.  Voting
        pipelines then run the hierarchical two-level majority vote (per
        group, then a root merge) instead of the flat kernel — bit-identical
        output, but bounded per-group working sets.  Requires exact voting
        (``vote_tolerance == 0``); the vanilla pipeline has no vote stage
        and rejects a topology.
    block_size:
        Optional coordinate-block width streamed through the majority-vote
        kernels (flat or hierarchical), capping their peak temporaries at
        ``O(rows . block)`` while staying bit-identical.  ``None`` is not a
        separate kernel: the same loops run at an internal width, and only
        a dense tensor's anchor sweep is then left at full width.
    vote_tolerance:
        Majority-vote tolerance (0 = exact byte equality; a positive value
        clusters votes within that Euclidean distance).
    """

    pipeline_name = "abstract"

    def __init__(
        self,
        assignment: BipartiteAssignment,
        validate: bool = True,
        topology=None,
        block_size: int | None = None,
        vote_tolerance: float = 0.0,
    ) -> None:
        self.assignment = assignment
        self.validate = bool(validate)
        self.topology = topology
        self.block_size = validate_block_size(block_size)
        self.vote_tolerance = validate_tolerance(vote_tolerance)
        if topology is not None and topology.num_workers != assignment.num_workers:
            raise ConfigurationError(
                f"topology spans {topology.num_workers} workers but the "
                f"assignment has {assignment.num_workers}"
            )
        if topology is not None and self.vote_tolerance > 0:
            # Hierarchical voting merges histograms by content: exact only.
            raise ConfigurationError(
                "hierarchical aggregation supports exact voting only; a group "
                f"topology cannot be combined with vote_tolerance={vote_tolerance}"
            )
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
        aggregate and the post-vote matrix it was reduced from.

        ``arrived`` enables the event runtime's *partial aggregation* mode:
        an ``(f, r)`` bool mask of the copies the PS actually accepted this
        round.  Voting pipelines then vote each file over its arrived copies
        only (a file with no arrivals contributes a zero winner); the vanilla
        pipeline drops missing worker rows from the robust stage.  ``None``
        (the default, and the whole synchronous path) treats every slot as
        present — missing contributions appear as the zero votes the fault
        injectors wrote.
        """
        if self.validate:
            _validate_vote_tensor(self._expected_slot_matrix(), tensor)
        if arrived is not None:
            arrived = _checked_arrival_mask(tensor, arrived)
        winners = self.post_vote_matrix(tensor, arrived)
        return RoundOutcome(aggregate=self._reduce(winners), winners=winners)

    def _reduce(self, voted: RowSelection) -> np.ndarray:
        """The pipeline's post-vote reducer: ``(n, d)`` winners -> ``(d,)``."""
        raise NotImplementedError

    def post_vote_matrix(
        self, tensor: VoteTensor, arrived: np.ndarray | None = None
    ) -> RowSelection:
        """The ``(n, d)`` rows the post-vote reducer sees.

        For voting pipelines these are the per-file majority winners; the
        vanilla pipeline overrides this with the raw worker gradients.
        :meth:`aggregate_tensor` returns it as :attr:`RoundOutcome.winners`;
        scenario traces digest it per round to pin the voting stage
        independently of the robust aggregation that follows.  It is a
        :class:`~repro.core.vote_tensor.RowSelection` over the tensor's
        honest base — no ``(n, d)`` matrix is built here; the robust rule
        either streams it or densifies it once, in
        :meth:`Aggregator.__call__ <repro.aggregation.base.Aggregator.__call__>`.

        Without a mask every slot votes (the synchronous semantics).  With a
        partial-aggregation mask (see :meth:`aggregate_tensor`), files whose
        copies all arrived keep the vectorized winner; each incomplete file
        is re-voted over its arrived copies only, and a file with no
        arrivals contributes a zero winner — the same "missing = zero
        gradient" convention the fault injectors use, so the robust stage
        sees a consistent shape every round.  The re-voted and the zero rows
        are patch rows of the selection.

        With a group topology the complete files vote hierarchically (per
        group, then a root histogram merge — bit-identical to the flat
        kernel, so the incomplete-file re-vote stays valid unchanged).
        """
        if self.topology is not None:
            # Imported lazily: repro.cluster pulls in this module at import
            # time, so a top-level import would be circular.
            from repro.cluster.topology import hierarchical_majority_vote

            winners, _ = hierarchical_majority_vote(
                tensor, self.topology, block_size=self.block_size
            )
        else:
            winners, _ = majority_vote_votetensor(
                tensor, self.vote_tolerance, block_size=self.block_size
            )
        if arrived is None:
            return winners
        incomplete = np.nonzero(~arrived.all(axis=1))[0]
        if incomplete.size == 0:
            return winners
        kept = np.nonzero(~np.isin(winners.files, incomplete))[0]
        files = np.concatenate([winners.files[kept], incomplete])
        rows = np.zeros((files.size, tensor.dim), dtype=tensor.dtype)
        rows[: kept.size] = winners.rows[kept]
        # One file at a time, its arrived copies only: under stragglers most
        # files are incomplete, and gathering them all at once is the cube.
        for row, i in zip(rows[kept.size :], incomplete):
            slots = np.nonzero(arrived[i])[0]
            if slots.size:
                copies = tensor.read_slots(np.full_like(slots, i), slots)
                row[:] = majority_vote_tensor(copies[None], self.vote_tolerance)[0][0]
        return RowSelection(winners.base, files, rows)

    def describe(self) -> dict[str, str]:
        """Short description used in experiment reports."""
        out = {
            "pipeline": self.pipeline_name,
            "assignment": self.assignment.name,
        }
        if self.topology is not None:
            out["topology"] = (
                f"groups={self.topology.num_groups}, "
                f"q_group={self.topology.q_group}, q_root={self.topology.q_root}"
            )
        return out

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
    vote_tolerance:
        Majority-vote tolerance (0 = exact equality).
    """

    pipeline_name = "byzshield"

    def __init__(
        self,
        assignment: BipartiteAssignment,
        aggregator: Aggregator | None = None,
        vote_tolerance: float = 0.0,
        validate: bool = True,
        topology=None,
        block_size: int | None = None,
    ) -> None:
        super().__init__(
            assignment,
            validate=validate,
            topology=topology,
            block_size=block_size,
            vote_tolerance=vote_tolerance,
        )
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
        vote_tolerance: float = 0.0,
        validate: bool = True,
        topology=None,
        block_size: int | None = None,
    ) -> None:
        super().__init__(
            assignment,
            validate=validate,
            topology=topology,
            block_size=block_size,
            vote_tolerance=vote_tolerance,
        )
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
        vote_tolerance: float = 0.0,
        validate: bool = True,
        topology=None,
        block_size: int | None = None,
    ) -> None:
        super().__init__(
            assignment,
            validate=validate,
            topology=topology,
            block_size=block_size,
            vote_tolerance=vote_tolerance,
        )
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
        validate: bool = True,
        topology=None,
        block_size: int | None = None,
    ) -> None:
        if topology is not None:
            raise ConfigurationError(
                "the vanilla pipeline has no vote stage; a group topology "
                "requires a voting pipeline (byzshield, detox or draco)"
            )
        if block_size is not None:
            raise ConfigurationError(
                "the vanilla pipeline runs no vote kernel; pass block_size to "
                "the robust aggregator instead (aggregator_params)"
            )
        super().__init__(assignment, validate=validate)
        if assignment.replication != 1 or assignment.computational_load != 1:
            raise ConfigurationError(
                "VanillaPipeline expects the baseline assignment with l = r = 1"
            )
        self.aggregator = aggregator

    def post_vote_matrix(
        self, tensor: VoteTensor, arrived: np.ndarray | None = None
    ) -> RowSelection:
        # No vote stage: the aggregator sees the raw (K, d) worker returns
        # (r == 1, so slot 0 holds each file's single return).  Partial mode
        # keeps only the rows that actually arrived.
        slot = np.zeros(tensor.num_files, dtype=np.int64)
        if arrived is None:
            return tensor.select_slots(slot)
        files = np.nonzero(arrived[:, 0])[0]
        return RowSelection(tensor.read_slots(files, slot[files]))

    def _reduce(self, voted: RowSelection) -> np.ndarray:
        if voted.shape[0] == 0:
            # No worker beat the deadline: the round contributes no update.
            return np.zeros(voted.shape[1], dtype=voted.dtype)
        return self.aggregator(voted)
