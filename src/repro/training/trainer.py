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
   an SGD step;
5. periodically the test accuracy is evaluated, producing the series plotted
   in the paper's Figures 2–11.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.server import ParameterServer
from repro.cluster.simulator import TrainingCluster
from repro.core.pipelines import AggregationPipeline
from repro.data.batching import (
    BatchSampler,
    RoundFiles,
    ShardedBatchSampler,
    partition_batch_into_files,
)
from repro.data.datasets import Dataset
from repro.exceptions import ConfigurationError
from repro.nn.metrics import evaluate_model
from repro.nn.optim import SGD, StepDecaySchedule
from repro.training.config import TrainingConfig
from repro.training.gradients import ModelGradientComputer
from repro.training.history import IterationRecord, TrainingHistory

__all__ = ["DistributedTrainer"]


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
    label:
        Name attached to the resulting history (used in experiment reports).
    round_observer:
        Optional callback invoked after every optimizer step as
        ``observer(iteration, round_result, outcome, server)`` — ``outcome``
        is the :class:`~repro.core.pipelines.RoundOutcome` the PS just
        computed (aggregate + post-vote winners), valid for the length of
        the call: its winners reference the round's gradient matrix, which
        is recycled once nothing holds it, so an observer streams them
        (``array_digest``, ``row_runs()``) and keeps copies, not the
        outcome.  The scenario engine uses it to record per-round traces
        without the trainer knowing anything about tracing.
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
        label: str = "run",
        round_observer=None,
        file_partition: "list[np.ndarray] | None" = None,
    ) -> None:
        assignment = cluster.assignment
        if config.batch_size % assignment.num_files != 0:
            raise ConfigurationError(
                f"batch_size={config.batch_size} must be divisible by the number "
                f"of files f={assignment.num_files}"
            )
        self.cluster = cluster
        self.pipeline = pipeline
        self.gradient_computer = gradient_computer
        self.train_dataset = train_dataset
        self.test_dataset = test_dataset
        self.config = config
        self.label = label
        self.round_observer = round_observer

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
            if len(file_partition) != assignment.num_files:
                raise ConfigurationError(
                    f"file_partition has {len(file_partition)} shards but the "
                    f"assignment has f={assignment.num_files} files"
                )
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
        """One gather for the whole batch, viewed as the round's ``f`` files."""
        inputs, labels = self.sampler.batch_data(np.concatenate(files))
        return RoundFiles.from_batch(inputs, labels, len(files))

    def run_iteration(self, iteration: int) -> IterationRecord:
        """Execute one synchronous iteration and return its metrics."""
        params = self.server.broadcast()
        file_data = self._file_data(self._next_file_indices())
        learning_rate = self.server.optimizer.schedule.rate(self.server.optimizer.iteration)
        round_result = self.cluster.run_round_tensor(params, file_data, iteration)
        outcome = self.server.update_tensor(
            round_result.vote_tensor, round_result.aggregation_mask
        )
        if self.round_observer is not None:
            self.round_observer(iteration, round_result, outcome, self.server)
        return IterationRecord(
            iteration=iteration,
            train_loss=round_result.mean_file_loss,
            distortion_fraction=round_result.distortion_fraction,
            learning_rate=learning_rate,
        )

    def evaluate(self) -> dict[str, float]:
        """Test accuracy and loss of the current global model."""
        self.gradient_computer.model.set_flat_params(self.server.params)
        return evaluate_model(
            self.gradient_computer.model,
            self.test_dataset.inputs,
            self.test_dataset.labels,
        )

    # -- full loop ----------------------------------------------------------------
    def train(self, verbose: bool = False) -> TrainingHistory:
        """Run ``config.num_iterations`` iterations and return the history."""
        history = TrainingHistory(label=self.label)
        for iteration in range(self.config.num_iterations):
            record = self.run_iteration(iteration)
            evaluate_now = (
                (iteration + 1) % self.config.eval_every == 0
                or iteration == self.config.num_iterations - 1
            )
            if evaluate_now:
                metrics = self.evaluate()
                record = IterationRecord(
                    iteration=record.iteration,
                    train_loss=record.train_loss,
                    distortion_fraction=record.distortion_fraction,
                    learning_rate=record.learning_rate,
                    test_accuracy=metrics["accuracy"],
                    test_loss=metrics["loss"],
                )
                if verbose:  # pragma: no cover - console output
                    print(
                        f"[{self.label}] iter {iteration + 1}/{self.config.num_iterations} "
                        f"loss={record.train_loss:.4f} acc={record.test_accuracy:.3f} "
                        f"eps={record.distortion_fraction:.3f}"
                    )
            history.append(record)
        return history
