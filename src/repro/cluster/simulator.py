"""One-round cluster simulation: honest compute, attack injection, PS view.

:class:`TrainingCluster` binds together the assignment graph, the worker pool,
the Byzantine selector and the attack, and produces for each round the
:class:`~repro.core.vote_tensor.VoteTensor` the parameter server aggregates,
along with ground truth needed by the experiments (true gradients, realized
distortion).
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from repro.attacks.base import Attack, AttackContext
from repro.attacks.selection import ByzantineSelector
from repro.cluster.events import AsyncRuntime, EventDrivenRound, UplinkSchedule
from repro.cluster.faults import (
    FaultContext,
    FaultEvent,
    FaultInjector,
    StragglerInjector,
    arrival_delays,
)
from repro.cluster.messages import TensorRoundResult
from repro.cluster.timing import CostModel
from repro.cluster.worker import WorkerPool
from repro.core.distortion import distorted_files
from repro.data.batching import RoundFiles
from repro.exceptions import TrainingError
from repro.graphs.bipartite import BipartiteAssignment
from repro.utils.rng import as_generator, derive_seed

__all__ = ["TrainingCluster"]


class TrainingCluster:
    """Simulates one training iteration, from broadcast to the PS's cutoff.

    Parameters
    ----------
    assignment:
        Worker/file assignment graph.
    worker_pool:
        Gradient-computing worker pool (must use the same assignment).
    attack:
        The Byzantine payload generator; ``None`` disables the attack.
    selector:
        Policy choosing which workers are Byzantine each round; ``None``
        means no Byzantine workers.
    seed:
        Base seed for per-round randomness (attack noise, random selection):
        round ``t`` draws from its own generator derived from ``(seed, t)``.
    fault_injectors:
        Benign fault models applied to each round after the attack.  Each
        injector receives its own derived RNG stream every round,
        independent of the selector/attack stream, so adding or removing an
        injector never changes the adversary's randomness (and vice versa).
    runtime:
        How the PS collects the round (:class:`AsyncRuntime`).  After the
        compute/attack/fault pass, :meth:`run_round_tensor` runs the PS-side
        event loop: messages arrive on the runtime's cost-model clock (fault
        delays included) and are accepted until the deadline or the quorum
        fires, per file or, with ``runtime.groups``, per (file, group) cell.
        ``None`` (the default) is the synchronous round: an all-zero cost
        model, no quorum, and the largest straggler timeout as the deadline
        (``inf`` without one, or when any straggler entry sets none), so
        every message arrives at its sender's straggler delay and the PS
        waits for each one that arrives.
    """

    def __init__(
        self,
        assignment: BipartiteAssignment,
        worker_pool: WorkerPool,
        attack: Attack | None = None,
        selector: ByzantineSelector | None = None,
        seed: int = 0,
        fault_injectors: Sequence[FaultInjector] = (),
        runtime: AsyncRuntime | None = None,
    ) -> None:
        if worker_pool.assignment is not assignment and worker_pool.assignment != assignment:
            raise TrainingError("worker pool and cluster use different assignments")
        if (attack is None) != (selector is None):
            raise TrainingError(
                "attack and selector must both be provided or both omitted"
            )
        if runtime is None:
            # An untimed straggler entry waits for its workers: no deadline.
            timeouts = [
                float("inf") if injector.timeout is None else injector.timeout
                for injector in fault_injectors
                if isinstance(injector, StragglerInjector)
            ]
            runtime = AsyncRuntime(
                deadline=max(timeouts, default=float("inf")),
                cost_model=CostModel(0.0, 0.0, 0.0, 0.0),
            )
        self.runtime = runtime
        self.assignment = assignment
        self.worker_pool = worker_pool
        self.attack = attack
        self.selector = selector
        self.fault_injectors = tuple(fault_injectors)
        self._uplink = UplinkSchedule(assignment)
        self._seed = operator.index(seed)  # an int; a Generator is a TypeError

    def _round_rng(self, iteration: int) -> np.random.Generator:
        return as_generator(derive_seed(self._seed, "round", iteration))

    def _fault_rng(self, iteration: int, index: int, kind: str) -> np.random.Generator:
        """Independent per-injector stream (see ``fault_injectors`` above)."""
        return as_generator(derive_seed(self._seed, "fault", index, kind, iteration))

    def _inject_faults(self, tensor, iteration: int) -> tuple[FaultEvent, ...]:
        events: list[FaultEvent] = []
        for index, injector in enumerate(self.fault_injectors):
            context = FaultContext(
                assignment=self.assignment,
                iteration=iteration,
                rng=self._fault_rng(iteration, index, injector.kind),
            )
            events.extend(injector.inject(tensor, context))
        return tuple(events)

    def _select_byzantine(
        self, iteration: int, rng: np.random.Generator
    ) -> tuple[int, ...]:
        """This round's compromised workers (empty when no attack is set)."""
        if self.attack is None or self.selector is None:
            return ()
        return tuple(sorted(self.selector.select(self.assignment, iteration, rng)))

    def _corrupted_files(self, byzantine: tuple[int, ...]) -> tuple[int, ...]:
        """Files whose majority is corrupted by these Byzantine workers."""
        if not byzantine:
            return ()
        return tuple(int(i) for i in distorted_files(self.assignment, byzantine))

    def run_round_tensor(
        self,
        params: np.ndarray,
        file_data: "RoundFiles | dict[int, tuple[np.ndarray, np.ndarray]]",
        iteration: int,
    ) -> TensorRoundResult:
        """Simulate one iteration's worker computations, attack and faults.

        Parameters
        ----------
        params:
            Model parameters broadcast by the PS at the start of the round.
        file_data:
            This round's batch partition: :class:`~repro.data.batching.RoundFiles`,
            or a hand-built ``{file: (inputs, labels)}`` dict, coerced here once.
        iteration:
            Zero-based iteration index (drives per-round seeds and selectors).
        """
        rng = self._round_rng(iteration)
        file_data = RoundFiles.coerce(file_data)
        tensor, honest_matrix, losses = self.worker_pool.honest_returns_tensor(
            params, file_data
        )

        byzantine = self._select_byzantine(iteration, rng)
        if byzantine:
            tensor.mark_byzantine(byzantine)
            context = AttackContext(
                assignment=self.assignment,
                byzantine_workers=byzantine,
                honest_matrix=honest_matrix,
                iteration=iteration,
                rng=rng,
            )
            self.attack.apply_tensor(context, tensor)

        fault_events = self._inject_faults(tensor, iteration)
        mean_loss = float(np.mean(losses)) if losses.size else float("nan")
        return self._finish_event_round(
            tensor, honest_matrix, byzantine, losses, mean_loss, fault_events, file_data
        )

    def _finish_event_round(
        self,
        tensor,
        honest_matrix: np.ndarray,
        byzantine: tuple[int, ...],
        losses: np.ndarray,
        mean_loss: float,
        fault_events: tuple[FaultEvent, ...],
        file_data: RoundFiles,
    ) -> TensorRoundResult:
        """The PS-side event loop of the round (see the ``runtime`` docs).

        Corruption was already applied by the injector pass, so this step
        only *times* the round: realized straggler delays shift arrivals,
        crashes/timeouts never arrive, and the event engine decides which of
        the remaining messages beat the deadline / quorum cutoff.  The
        ``accepted`` mask it returns is what the vote counts.
        """
        runtime = self.runtime
        arrivals = self._uplink.arrival_times(
            runtime.cost_model,
            tensor.dim,
            file_data.samples_per_file,
            arrival_delays(fault_events, self.assignment.num_workers),
        )
        outcome = EventDrivenRound(runtime).collect(tensor, arrivals)
        return TensorRoundResult(
            vote_tensor=tensor,
            honest_matrix=honest_matrix,
            byzantine_workers=byzantine,
            distorted_files=self._corrupted_files(byzantine),
            file_losses=losses,
            mean_file_loss=mean_loss,
            fault_events=fault_events + outcome.late_events,
            round_time=outcome.round_time,
            arrivals=outcome.arrivals,
            accepted=outcome.accepted,
        )
