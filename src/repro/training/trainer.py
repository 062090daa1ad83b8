"""One synchronous round of paper Algorithm 1, and the objects that own its stages.

Each iteration (:meth:`DistributedTrainer.step`):

1. the PS broadcasts ``w_t`` (:meth:`ParameterServer.broadcast`) and the
   sampler draws a batch ``B_t`` already split into ``f`` files;
2. the workers compute every file's gradient at ``w_t`` in one pass through
   the stacked per-file engine and replicate it into the assigned slots of a
   copy-on-write :class:`~repro.core.vote_tensor.VoteTensor`
   (:meth:`WorkerPool.honest_returns_tensor`);
3. the Byzantine selector picks this round's compromised workers, the attack
   rewrites their slots, the benign fault models perturb the round and the
   PS's event loop decides which copies arrived in time
   (:meth:`TrainingCluster.run_round_tensor`);
4. the PS votes every file over its accepted copies, applies its robust rule
   and takes an SGD step (:meth:`ParameterServer.update_tensor`).

:class:`DistributedTrainer` is the one constructor: it builds the sampler,
the worker pool, the cluster and the server from the pipeline's assignment
and one seed.  The loop over iterations, the periodic test evaluation behind
the paper's Figures 2–11 and the run's record live in
:meth:`repro.scenarios.runner.ScenarioRunner.run`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

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
from repro.cluster.timing import CostModel
from repro.core.backend import ensure_float
from repro.core.distortion import distorted_files
from repro.core.pipelines import AggregationPipeline, RoundOutcome
from repro.core.vote_tensor import VoteTensor
from repro.data.batching import BatchSampler, RoundFiles, ShardedBatchSampler
# Not called here: benchmarks/e2e/layers.py:patch_round_path patches this name
# on this module.
from repro.data.batching import partition_batch_into_files  # noqa: F401
from repro.data.datasets import Dataset
from repro.exceptions import TrainingError
from repro.graphs.bipartite import BipartiteAssignment
from repro.nn.metrics import evaluate_model
from repro.nn.optim import SGD, StepDecaySchedule
from repro.training.gradients import ModelGradientComputer
from repro.utils.digest import array_digest
from repro.utils.rng import as_generator, derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.compression.compressors import Compressor
    from repro.scenarios.spec import TrainingSpec

__all__ = ["DistributedTrainer", "IterationRecord"]


@dataclass(frozen=True)
class IterationRecord:
    """What :meth:`DistributedTrainer.run_iteration` reports of one round.

    ``distortion_fraction`` is the graph's predicted fraction of files the
    Byzantine workers hold (``distorted_files(assignment, byzantine)`` over
    ``f``), not what the vote realised.  The record holds no array of the
    round, so keeping it does not keep the round's gradient matrix alive.
    """

    iteration: int
    train_loss: float
    distortion_fraction: float


@dataclass
class TensorRoundResult:
    """Everything one round hands from the workers to the parameter server.

    Attributes
    ----------
    vote_tensor:
        The PS-side view of the returns (attacked slots already overwritten).
    honest_matrix:
        True per-file gradients stacked in file order (ground truth).
    byzantine_workers:
        The compromised workers of this round.
    distorted_files:
        Files the graph predicts the Byzantine workers out-vote this round:
        ``distorted_files(assignment, byzantine)``, the files on which they
        hold a majority of the copies.  What the vote actually returned is
        the trace's ``RoundTrace.realised_distorted``.
    arrivals:
        ``(f, r)`` simulated arrival time of each message (``inf`` = never
        sent).
    accepted:
        ``(f, r)`` bool mask of the messages the PS accepted before its
        deadline/quorum cutoff: the copies the vote counts.
    mean_file_loss:
        Average training loss over the round's files.
    fault_events:
        Benign faults injected this round (stragglers, dropout, corruption),
        plus the event runtime's ``"late"`` rejections.
    round_time:
        Simulated round duration in seconds: the event engine's clock at
        round close (last quorum-satisfying arrival, else the deadline; see
        :mod:`repro.cluster.events`).
    """

    vote_tensor: VoteTensor
    honest_matrix: np.ndarray
    byzantine_workers: tuple[int, ...]
    distorted_files: tuple[int, ...]
    arrivals: np.ndarray
    accepted: np.ndarray
    mean_file_loss: float
    fault_events: tuple[FaultEvent, ...]
    round_time: float

    @property
    def distortion_fraction(self) -> float:
        """The graph's predicted ``ε̂`` of the round: :attr:`distorted_files`
        over the total files.  Not what the vote realised — see
        ``RoundTrace.realised_distorted`` in the scenario trace."""
        return len(self.distorted_files) / self.vote_tensor.num_files


class WorkerPool:
    """The ``K`` simulated workers and their per-file gradients.

    Honest workers assigned the same file return bit-identical gradients
    (exact-equality majority voting rests on this), so every file gradient is
    computed once — all ``f`` of them into one ``(f, d)`` matrix through the
    oracle's ``batched`` entry point — and replicated into the file's slots
    without copying a replica.  An uplink ``compressor`` compresses each file
    gradient once, so a file's copies stay bit-identical; the honest matrix
    and losses are reported *uncompressed*.
    """

    def __init__(
        self,
        assignment: BipartiteAssignment,
        gradient_computer: ModelGradientComputer,
        compressor: "Compressor | None",
    ) -> None:
        self.assignment = assignment
        self.gradient_computer = gradient_computer
        self.compressor = compressor

    def honest_returns_tensor(
        self, params: np.ndarray, files: RoundFiles
    ) -> tuple[VoteTensor, np.ndarray, np.ndarray]:
        """What every (worker, file) pair returns when all are honest.

        Returns ``(tensor, honest_matrix, file_losses)``: the honest
        gradients (as transmitted) replicated into every assigned ``(file,
        slot)`` of the ``(f, r, d)`` tensor, the ``(f, d)`` ground-truth
        matrix and the ``(f,)`` per-file losses.
        """
        matrix, losses = self.gradient_computer.batched(params, files)
        sent = matrix if self.compressor is None else self.compressor.compress_matrix(matrix)
        return VoteTensor.from_honest(self.assignment, sent), matrix, losses


class TrainingCluster:
    """One round from the broadcast to the PS's cutoff: compute, attack, faults, collect.

    Round ``t`` draws its selection and attack noise from a generator derived
    from ``(seed, t)``, and each fault injector from its own stream derived
    from ``(seed, index, kind, t)``, so adding or removing an injector never
    changes the adversary's randomness (and vice versa).

    ``runtime`` is how the PS collects the round: messages arrive on the
    runtime's cost-model clock (fault delays included) and are accepted until
    the deadline or the quorum fires, per file or, with ``runtime.groups``,
    per (file, group) cell.  ``None`` is the synchronous round: an all-zero
    cost model, no quorum, and the largest straggler timeout as the deadline
    (``inf`` without one, or when any straggler entry sets none), so every
    message arrives at its sender's straggler delay and the PS waits for
    each one that arrives.
    """

    def __init__(
        self,
        worker_pool: WorkerPool,
        attack: Attack | None,
        selector: ByzantineSelector | None,
        seed: int,
        fault_injectors: Sequence[FaultInjector],
        runtime: AsyncRuntime | None,
    ) -> None:
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
        self.assignment = worker_pool.assignment
        self.worker_pool = worker_pool
        self.attack = attack
        self.selector = selector
        self.fault_injectors = tuple(fault_injectors)
        self._uplink = UplinkSchedule(self.assignment)
        self._seed = seed

    def run_round_tensor(
        self, params: np.ndarray, files: RoundFiles, iteration: int
    ) -> TensorRoundResult:
        """Simulate one iteration's worker computations, attack, faults and collect.

        ``files`` is the round's :class:`~repro.data.batching.RoundFiles`.
        Corruption is applied by the injector pass; the event loop after it only *times* the round:
        realized straggler delays shift arrivals, crashes/timeouts never
        arrive, and the engine decides which of the remaining messages beat
        the deadline / quorum cutoff.  Its ``accepted`` mask is what the
        vote counts.
        """
        assignment, seed = self.assignment, self._seed
        rng = as_generator(derive_seed(seed, "round", iteration))
        tensor, honest_matrix, losses = self.worker_pool.honest_returns_tensor(params, files)

        byzantine: tuple[int, ...] = ()
        if self.selector is not None:
            byzantine = tuple(sorted(self.selector.select(assignment, iteration, rng)))
        if byzantine:
            tensor.mark_byzantine(byzantine)
            context = AttackContext(
                assignment=assignment,
                byzantine_workers=byzantine,
                honest_matrix=honest_matrix,
                iteration=iteration,
                rng=rng,
            )
            self.attack.apply_tensor(context, tensor)

        events: list[FaultEvent] = []
        for index, injector in enumerate(self.fault_injectors):
            fault_rng = as_generator(derive_seed(seed, "fault", index, injector.kind, iteration))
            events.extend(injector.inject(tensor, FaultContext(assignment, iteration, fault_rng)))
        mean_loss = float(np.mean(losses))

        arrivals = self._uplink.arrival_times(
            self.runtime.cost_model,
            tensor.dim,
            files.samples_per_file,
            arrival_delays(events, assignment.num_workers),
        )
        outcome = EventDrivenRound(self.runtime).collect(tensor, arrivals)
        distorted = distorted_files(assignment, byzantine) if byzantine else ()
        return TensorRoundResult(
            vote_tensor=tensor,
            honest_matrix=honest_matrix,
            byzantine_workers=byzantine,
            distorted_files=tuple(int(i) for i in distorted),
            arrivals=outcome.arrivals,
            accepted=outcome.accepted,
            mean_file_loss=mean_loss,
            fault_events=tuple(events) + outcome.late_events,
            round_time=outcome.round_time,
        )


class ParameterServer:
    """The global parameters ``w_t``, the aggregation pipeline and the optimizer
    (paper Algorithm 1, lines 14–17)."""

    def __init__(
        self, initial_params: np.ndarray, pipeline: AggregationPipeline, optimizer: SGD
    ) -> None:
        # Keep the model's working dtype (float32 stays float32) so the PS
        # update runs in the same precision as the workers' backward passes.
        params = ensure_float(initial_params).ravel()
        if params.size == 0:
            raise TrainingError("initial parameter vector is empty")
        self._params = params.copy()
        self.pipeline = pipeline
        self.optimizer = optimizer

    @property
    def params(self) -> np.ndarray:
        """Copy of the current global parameters ``w_t``."""
        return self._params.copy()

    def broadcast(self) -> np.ndarray:
        """Parameters sent to the workers at the start of an iteration: a
        read-only view of ``w_t``, not a copy.

        It stays ``w_t`` for as long as it is held — the optimizer step
        returns a new vector and never writes into the old one — so a round
        holds the parameters once.  The workers' model reads ``w_t``
        through it too: :meth:`~repro.nn.models.Sequential.set_flat_params`
        binds the layers' parameters to views of the broadcast (read-only,
        like it) instead of copying it into arrays of their own.
        """
        view = self._params.view()
        view.setflags(write=False)
        return view

    def update_tensor(
        self, tensor: VoteTensor, arrived: np.ndarray | None = None
    ) -> RoundOutcome:
        """Vote and reduce the returns, then take one optimizer step.

        ``arrived`` is the round's ``(f, r)`` mask of the copies the PS
        accepted (``None``: all of them); only those vote.  Returns the
        round's :class:`~repro.core.pipelines.RoundOutcome` unchanged:
        ``.aggregate`` is the gradient used for the update.
        """
        outcome = self.pipeline.aggregate_tensor(tensor, arrived)
        self._params = self.optimizer.step_vector(self._params, outcome.aggregate)
        return outcome

    def state_digest(self) -> str:
        """Stable hex digest of the current global parameters; scenario
        traces pin it per round to detect any drift."""
        return array_digest(self._params)


class DistributedTrainer:
    """One (scheme, attack, defense) setup, stepped one round at a time.

    Parameters
    ----------
    pipeline:
        Aggregation pipeline run by the PS; its ``assignment`` is the
        worker/file graph of every stage.
    gradient_computer:
        Model/loss gradient oracle: ``batched(params, files)`` computes a
        round's ``(f, d)`` gradients and ``initial_params()`` gives ``w₀``.
    train_dataset, test_dataset:
        Training data (batched every iteration) and held-out evaluation data.
    config:
        The training schedule (:class:`~repro.scenarios.spec.TrainingSpec`:
        batch size, iterations, learning-rate schedule, momentum...).
    seed:
        Seeds the batch order and every round's selection, attack and fault
        streams.
    attack, selector:
        The Byzantine payload generator and the policy choosing the
        compromised workers each round: both or neither.
    fault_injectors, runtime:
        Benign fault models applied after the attack, and how the PS
        collects a round (see :class:`TrainingCluster`).
    compressor:
        Optional uplink compressor of every file gradient.
    file_partition:
        Optional list of ``f`` shard index arrays (one per file, from
        :func:`repro.data.batching.build_file_partition`): every file's batch
        slice is drawn from its own shard through a
        :class:`~repro.data.batching.ShardedBatchSampler` (non-IID training).
        ``None`` keeps the paper's IID :class:`~repro.data.batching.BatchSampler`.
    """

    def __init__(
        self,
        pipeline: AggregationPipeline,
        gradient_computer: ModelGradientComputer,
        train_dataset: Dataset,
        test_dataset: Dataset,
        config: "TrainingSpec",
        *,
        seed: int,
        attack: Attack | None = None,
        selector: ByzantineSelector | None = None,
        fault_injectors: Sequence[FaultInjector] = (),
        runtime: AsyncRuntime | None = None,
        compressor: "Compressor | None" = None,
        file_partition: "list[np.ndarray] | None" = None,
    ) -> None:
        if (attack is None) != (selector is None):
            raise TrainingError("attack and selector must both be provided or both omitted")
        seed = operator.index(seed)  # an int; a Generator is a TypeError
        assignment = pipeline.assignment
        self.pipeline = pipeline
        self.gradient_computer = gradient_computer
        self.test_dataset = test_dataset
        self.config = config
        self.cluster = TrainingCluster(
            WorkerPool(assignment, gradient_computer, compressor),
            attack,
            selector,
            seed,
            fault_injectors,
            runtime,
        )
        schedule = StepDecaySchedule(config.learning_rate, config.lr_decay, config.lr_period)
        self.server = ParameterServer(
            gradient_computer.initial_params(),
            pipeline,
            SGD(schedule, momentum=config.momentum),
        )
        if file_partition is not None:
            self.sampler = ShardedBatchSampler(
                train_dataset, config.batch_size, shards=file_partition, seed=seed
            )
        else:
            self.sampler = BatchSampler(
                train_dataset, config.batch_size, assignment.num_files, seed=seed
            )

    def _next_files(self) -> RoundFiles:
        """The next batch's ``f`` files as rows of the training set, not yet
        gathered: the stacked pass gathers them a chunk at a time through the
        sampler."""
        sampler = self.sampler
        dataset = sampler.dataset
        return RoundFiles(
            np.stack(sampler.next_batch_files()),
            (dataset.inputs, dataset.labels),
            sampler.batch_data,
        )

    def step(self, iteration: int) -> tuple[TensorRoundResult, RoundOutcome]:
        """Execute one synchronous iteration: the round and the PS update.

        The outcome's winners reference the round's gradient matrix, which
        the next round reuses once nothing holds it: a caller reads the pair
        and drops it before the next ``step``.
        """
        params = self.server.broadcast()
        round_result = self.cluster.run_round_tensor(params, self._next_files(), iteration)
        outcome = self.server.update_tensor(round_result.vote_tensor, round_result.accepted)
        return round_result, outcome

    def run_iteration(self, iteration: int) -> IterationRecord:
        """:meth:`step`, reduced to its loss and predicted distortion."""
        round_result, _ = self.step(iteration)
        return IterationRecord(
            iteration=iteration,
            train_loss=round_result.mean_file_loss,
            distortion_fraction=round_result.distortion_fraction,
        )

    def evaluate(self) -> dict[str, float]:
        """Test accuracy and loss of the current global model."""
        self.gradient_computer.model.set_flat_params(self.server.broadcast())
        return evaluate_model(
            self.gradient_computer.model,
            self.test_dataset.inputs,
            self.test_dataset.labels,
        )
