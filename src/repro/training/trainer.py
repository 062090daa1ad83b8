"""The synchronous distributed training loop (paper Algorithm 1).

Each iteration:

1. the PS samples a batch ``B_t`` and partitions it into ``f`` files;
2. the simulated workers compute their assigned file gradients at the
   broadcast parameters ``w_t`` (all ``f`` files in one pass through the
   stacked per-file gradient engine);
3. the Byzantine selector picks the compromised workers and the attack
   substitutes their returns;
4. the PS runs its aggregation pipeline (majority vote + robust aggregation
   for ByzShield/DETOX, plain robust aggregation for the baselines) and takes
   an SGD step.

The trainer runs one iteration at a time (:meth:`DistributedTrainer.step`);
the loop over iterations, the periodic test evaluation behind the paper's
Figures 2–11 and the run's record live in
:meth:`repro.scenarios.runner.ScenarioRunner.run`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.messages import TensorRoundResult
from repro.cluster.server import ParameterServer
from repro.cluster.simulator import TrainingCluster
from repro.core.pipelines import AggregationPipeline, RoundOutcome
from repro.data.batching import (
    BatchSampler,
    RoundFiles,
    ShardedBatchSampler,
    partition_batch_into_files,
)
from repro.data.datasets import Dataset
from repro.nn.metrics import evaluate_model
from repro.nn.optim import SGD, StepDecaySchedule
from repro.training.config import TrainingConfig
from repro.training.gradients import ModelGradientComputer

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


class DistributedTrainer:
    """Drives the full training loop for one (scheme, attack, defense) setup.

    Parameters
    ----------
    cluster:
        The simulated worker cluster (assignment + attack + selector).
    pipeline:
        Aggregation pipeline run by the PS.
    gradient_computer:
        Shared model/loss gradient oracle; also provides ``w₀``.
    train_dataset, test_dataset:
        Training data (batched every iteration) and held-out evaluation data.
    config:
        Hyper-parameters (batch size, iterations, learning-rate schedule...).
    file_partition:
        Optional list of ``f`` shard index arrays (one per file, from
        :func:`repro.data.batching.build_file_partition`).  When given,
        every file's batch slice is drawn from its own shard through a
        :class:`~repro.data.batching.ShardedBatchSampler` — non-IID
        training.  ``None`` (default) keeps the paper's IID path, batching
        through the classic :class:`~repro.data.batching.BatchSampler`
        bit-identically to before this option existed.
    """

    def __init__(
        self,
        cluster: TrainingCluster,
        pipeline: AggregationPipeline,
        gradient_computer: ModelGradientComputer,
        train_dataset: Dataset,
        test_dataset: Dataset,
        config: TrainingConfig,
        file_partition: "list[np.ndarray] | None" = None,
    ) -> None:
        self.cluster = cluster
        self.pipeline = pipeline
        self.gradient_computer = gradient_computer
        self.train_dataset = train_dataset
        self.test_dataset = test_dataset
        self.config = config

        schedule = StepDecaySchedule(
            config.learning_rate, config.lr_decay, config.lr_period
        )
        optimizer = SGD(
            schedule, momentum=config.momentum, weight_decay=config.weight_decay
        )
        self.server = ParameterServer(
            initial_params=gradient_computer.initial_params(),
            pipeline=pipeline,
            optimizer=optimizer,
        )
        if file_partition is not None:
            self.sampler = ShardedBatchSampler(
                dataset=train_dataset,
                batch_size=config.batch_size,
                shards=file_partition,
                seed=config.seed,
            )
        else:
            self.sampler = BatchSampler(
                dataset=train_dataset, batch_size=config.batch_size, seed=config.seed
            )

    # -- single iteration -------------------------------------------------------
    def _next_file_indices(self) -> list[np.ndarray]:
        if isinstance(self.sampler, ShardedBatchSampler):
            return self.sampler.next_batch_files()
        return partition_batch_into_files(
            self.sampler.next_batch(), self.cluster.assignment.num_files
        )

    def _file_data(self, files: "list[np.ndarray]") -> RoundFiles:
        """The round's ``f`` files as rows of the training set, not yet gathered:
        the stacked pass gathers them a chunk at a time through the sampler."""
        dataset = self.sampler.dataset
        return RoundFiles(
            np.stack(files), (dataset.inputs, dataset.labels), self.sampler.batch_data
        )

    def step(self, iteration: int) -> tuple[TensorRoundResult, RoundOutcome]:
        """Execute one synchronous iteration: the round and the PS update.

        The outcome's winners reference the round's gradient matrix, which
        the next round reuses once nothing holds it: a caller reads the pair
        and drops it before the next ``step``.
        """
        params = self.server.broadcast()
        file_data = self._file_data(self._next_file_indices())
        round_result = self.cluster.run_round_tensor(params, file_data, iteration)
        outcome = self.server.update_tensor(
            round_result.vote_tensor, round_result.accepted
        )
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
