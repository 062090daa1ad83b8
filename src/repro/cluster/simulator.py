"""One-round cluster simulation: honest compute, attack injection, PS view.

:class:`TrainingCluster` binds together the assignment graph, the worker pool,
the Byzantine selector and the attack, and produces for each round the
:class:`~repro.core.vote_tensor.VoteTensor` the parameter server aggregates,
along with ground truth needed by the experiments (true gradients, realized
distortion).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.attacks.base import Attack, AttackContext
from repro.attacks.selection import ByzantineSelector
from repro.cluster.events import (
    AsyncRuntime,
    EventDrivenRound,
    base_arrival_times,
    perturbed_arrival_times,
)
from repro.cluster.faults import (
    FaultContext,
    FaultEvent,
    FaultInjector,
    arrival_perturbations,
    round_duration,
)
from repro.cluster.messages import TensorRoundResult
from repro.cluster.worker import WorkerPool
from repro.core.backend import DEFAULT_DTYPE
from repro.core.distortion import distorted_files
from repro.data.batching import RoundFiles
from repro.exceptions import TrainingError
from repro.graphs.bipartite import BipartiteAssignment
from repro.utils.rng import as_generator, derive_seed

__all__ = ["TrainingCluster"]


class TrainingCluster:
    """Simulates the worker side of one synchronous training iteration.

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
        Base seed for per-round randomness (attack noise, random selection).
    fault_injectors:
        Benign fault models applied to each round's vote tensor after the
        attack.  Each injector receives its own derived
        RNG stream every round, independent of the selector/attack stream,
        so adding or removing an injector never changes the adversary's
        randomness (and vice versa).
    runtime:
        Event-driven round configuration (:class:`AsyncRuntime`).  ``None``
        (the default) keeps the lockstep synchronous round; when set,
        :meth:`run_round_tensor` replays the same compute/attack/fault
        sequence, then runs the PS-side event loop — messages arrive on the
        runtime's cost-model clock (fault delays included) and are accepted
        until the deadline or a per-file quorum fires.  With
        ``deadline=inf`` and no quorum the produced votes are bit-identical
        to the synchronous path.
    topology:
        Optional :class:`~repro.cluster.topology.GroupTopology` for
        hierarchical rounds.  Under the event-driven runtime the quorum then
        closes per (file, group) cell — each group's aggregator stops
        accepting its share of a file independently and rejects later copies
        as group-level ``"late"`` events (see
        :meth:`EventDrivenRound.collect`).  Synchronous rounds are unaffected
        (the topology only shapes the PS-side aggregation, which the
        pipeline owns).
    """

    def __init__(
        self,
        assignment: BipartiteAssignment,
        worker_pool: WorkerPool,
        attack: Attack | None = None,
        selector: ByzantineSelector | None = None,
        seed: int | np.random.Generator | None = 0,
        fault_injectors: Sequence[FaultInjector] = (),
        runtime: AsyncRuntime | None = None,
        topology=None,
    ) -> None:
        if worker_pool.assignment is not assignment and worker_pool.assignment != assignment:
            raise TrainingError("worker pool and cluster use different assignments")
        if (attack is None) != (selector is None):
            raise TrainingError(
                "attack and selector must both be provided or both omitted"
            )
        if (
            runtime is not None
            and runtime.quorum is not None
            and runtime.quorum > assignment.replication
        ):
            raise TrainingError(
                f"runtime quorum {runtime.quorum} exceeds the assignment's "
                f"replication r={assignment.replication}: no file could close"
            )
        if topology is not None and topology.num_workers != assignment.num_workers:
            raise TrainingError(
                f"topology spans {topology.num_workers} workers but the "
                f"assignment has {assignment.num_workers}"
            )
        self.runtime = runtime
        self.topology = topology
        self.assignment = assignment
        self.worker_pool = worker_pool
        self.attack = attack
        self.selector = selector
        self.fault_injectors = tuple(fault_injectors)
        self._seed = seed if isinstance(seed, int) else None
        self._rng = as_generator(seed)
        # Fault streams must stay independent of the round/attack stream even
        # when the cluster is seeded with a live Generator: hash the
        # generator's construction-time state into a fault base seed without
        # consuming any draws from it.
        if self._seed is not None:
            self._fault_seed: int | None = self._seed
        elif self.fault_injectors:
            self._fault_seed = derive_seed(
                "fault-base", repr(self._rng.bit_generator.state)
            )
        else:
            self._fault_seed = None

    def _round_rng(self, iteration: int) -> np.random.Generator:
        if self._seed is None:
            return self._rng
        return as_generator(derive_seed(self._seed, "round", iteration))

    def _fault_rng(self, iteration: int, index: int, kind: str) -> np.random.Generator:
        """Independent per-injector stream (see ``fault_injectors`` above)."""
        assert self._fault_seed is not None  # set whenever injectors exist
        return as_generator(derive_seed(self._fault_seed, "fault", index, kind, iteration))

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
        if self.runtime is not None:
            return self._finish_event_round(
                tensor, honest_matrix, byzantine, losses, mean_loss,
                fault_events, file_data,
            )
        return TensorRoundResult(
            vote_tensor=tensor,
            honest_matrix=honest_matrix,
            byzantine_workers=byzantine,
            distorted_files=self._corrupted_files(byzantine),
            file_losses=losses,
            mean_file_loss=mean_loss,
            fault_events=fault_events,
            round_time=round_duration(list(fault_events)),
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
        """PS-side event loop of an async round (see the ``runtime`` docs).

        Payload faults were already applied by the synchronous injector pass
        (identical RNG streams), so this step only *re-times* them: realized
        straggler delays shift arrivals, crashes/timeouts never arrive, and
        the event engine decides which of the remaining messages beat the
        deadline / quorum cutoff.
        """
        runtime = self.runtime
        assert runtime is not None
        samples = np.array(
            [inputs.shape[0] for inputs, _ in file_data], dtype=DEFAULT_DTYPE
        )
        base = base_arrival_times(
            self.assignment, runtime.cost_model, tensor.dim, samples
        )
        extra_delay, never_arrives = arrival_perturbations(fault_events)
        arrivals = perturbed_arrival_times(
            base, tensor.workers, extra_delay, never_arrives
        )
        outcome = EventDrivenRound(runtime).collect(
            tensor, arrivals, topology=self.topology
        )
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
            aggregation_mask=outcome.accepted if runtime.partial else None,
        )
