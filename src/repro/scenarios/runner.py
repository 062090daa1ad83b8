"""Turn a :class:`~repro.scenarios.spec.ScenarioSpec` into a live run.

The runner is the only place that knows how to map spec sections onto the
library's registries and constructors: assignment schemes, aggregation
pipelines, attacks + schedules, fault injectors, compressors, the synthetic
datasets and the MLP substrate.  Each :meth:`ScenarioRunner.run` builds every
component fresh from the spec (no state leaks between runs) and drives
:class:`~repro.training.trainer.DistributedTrainer` down the vectorized
round path: all ``f`` file gradients in one pass through the stacked
per-file engine (:meth:`~repro.training.gradients.ModelGradientComputer.batched`),
packed into a contiguous :class:`~repro.core.vote_tensor.VoteTensor` for
attack/fault injection and the vectorized majority vote, with a bit-exact
:class:`~repro.scenarios.trace.RunTrace` recorded via the trainer's round
observer.  The observer stays off the data path: it digests what the round
already produced — the vote tensor where it lies (still lazy afterwards) and
the :class:`~repro.core.pipelines.RoundOutcome` the PS returned — and
computes nothing of its own.

Because a run is a pure function of its spec, the campaign engine
(:mod:`repro.campaigns`) can execute many runners across worker processes
and obtain traces bit-identical to serial execution.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable

from repro.aggregation.registry import create_aggregator
from repro.assignment.registry import create_scheme
from repro.attacks.base import Attack
from repro.attacks.registry import create_attack
from repro.attacks.schedules import AdversarySchedule, ScheduledSelector
from repro.cluster.events import AsyncRuntime
from repro.cluster.faults import (
    DropoutInjector,
    FaultInjector,
    MessageCorruptionInjector,
    StragglerInjector,
)
from repro.cluster.simulator import TrainingCluster
from repro.cluster.topology import GroupTopology
from repro.cluster.worker import WorkerPool
from repro.compression.compressors import create_compressor
from repro.core.pipelines import (
    AggregationPipeline,
    ByzShieldPipeline,
    DetoxPipeline,
    DracoPipeline,
    VanillaPipeline,
)
from repro.data.batching import build_file_partition
from repro.data.datasets import Dataset, train_test_split
from repro.data.synthetic import make_gaussian_mixture, make_synthetic_images
from repro.exceptions import ConfigurationError
from repro.graphs.bipartite import BipartiteAssignment
from repro.nn.models import build_mlp
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.trace import RoundTrace, RunTrace, array_digest, hex_float
from repro.training.config import TrainingConfig
from repro.training.gradients import ModelGradientComputer
from repro.training.history import TrainingHistory
from repro.training.trainer import DistributedTrainer
from repro.utils.rng import derive_seed

__all__ = ["ScenarioResult", "ScenarioRunner", "run_scenario"]


@dataclass
class ScenarioResult:
    """Everything a scenario run produces."""

    spec: ScenarioSpec
    trace: RunTrace
    history: TrainingHistory

    def summary(self) -> dict[str, object]:
        """Flat row for reports and the CLI."""
        rounds = self.trace.rounds
        history = self.history.summary()
        dropped = sum(
            1 for r in rounds for f in r.faults if f.get("dropped")
        )
        corrupted = sum(
            1 for r in rounds for f in r.faults if f.get("kind") == "corruption"
        )
        return {
            "scenario": self.spec.name,
            "rounds": len(rounds),
            "final_accuracy": history["final_accuracy"],
            "mean_distortion": history["mean_distortion"],
            "max_q": max((r.q for r in rounds), default=0),
            "dropped_contributions": dropped,
            "corrupted_messages": corrupted,
            "simulated_time": self.trace.total_simulated_time,
            "final_params_digest": self.trace.final_params_digest,
        }


_FAULT_INJECTORS = {
    "stragglers": StragglerInjector,
    "dropout": DropoutInjector,
    "corruption": MessageCorruptionInjector,
}


def _create_fault_injector(kind: str, **params: Any) -> FaultInjector:
    return _FAULT_INJECTORS[kind](**params)


def _create(what: str, factory: Callable[..., Any], name: str, /, **params: Any) -> Any:
    """``factory(name, **params)`` on a spec section's free-form ``params``: a
    keyword the named component does not take is a configuration error."""
    try:
        return factory(name, **params)
    except TypeError as exc:
        raise ConfigurationError(f"bad parameters for {what} {name!r}: {exc}") from exc


class ScenarioRunner:
    """Executes one :class:`ScenarioSpec` and records its trace."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec

    # -- component assembly --------------------------------------------------
    def _build_assignment(self) -> BipartiteAssignment:
        section = self.spec.cluster
        scheme = _create("scheme", create_scheme, section.scheme, **section.params)
        return scheme.assignment

    def _build_topology(self, assignment: BipartiteAssignment) -> GroupTopology | None:
        section = self.spec.topology
        if section is None:
            return None
        return GroupTopology(
            assignment.num_workers,
            section.groups,
            q_group=section.q_group,
            q_root=section.q_root,
        )

    def _build_pipeline(
        self,
        assignment: BipartiteAssignment,
        topology: GroupTopology | None,
    ) -> AggregationPipeline:
        section = self.spec.pipeline
        max_q = 0
        if self.spec.attack is not None:
            max_q = AdversarySchedule(**dataclasses.asdict(self.spec.attack.schedule)).max_q
        if section.kind == "draco":
            return DracoPipeline(
                assignment,
                num_byzantine=max_q,
                vote_tolerance=section.vote_tolerance,
                topology=topology,
                block_size=section.block_size,
            )
        aggregator = _create(
            "aggregator", create_aggregator, section.aggregator, **section.aggregator_params
        )
        # The reducer of a full round sees one row per file: the f voted files
        # (ByzShield), the vote groups (DETOX: one file each) or the workers
        # (vanilla: l = r = 1).  Partial async rounds can still fall short at
        # run time; that stays the aggregator's AggregationError.
        needed = aggregator.minimum_votes()
        if needed > assignment.num_files:
            raise ConfigurationError(
                f"scenario.pipeline.aggregator_params: {section.aggregator!r} as "
                f"configured needs at least {needed} votes, but "
                f"a full round of the {section.kind!r} pipeline on this cluster "
                f"reduces {assignment.num_files}"
            )
        if section.kind == "byzshield":
            return ByzShieldPipeline(
                assignment,
                aggregator=aggregator,
                vote_tolerance=section.vote_tolerance,
                topology=topology,
                block_size=section.block_size,
            )
        if section.kind == "detox":
            return DetoxPipeline(
                assignment,
                aggregator=aggregator,
                vote_tolerance=section.vote_tolerance,
                topology=topology,
                block_size=section.block_size,
            )
        # Vanilla rejects both knobs itself with a pointed message, so a spec
        # that combines them surfaces as a ConfigurationError, not silence.
        return VanillaPipeline(
            assignment,
            aggregator=aggregator,
            topology=topology,
            block_size=section.block_size,
        )

    def _build_datasets(self) -> tuple[Dataset, Dataset]:
        data = self.spec.data
        total = data.num_train + data.num_test
        if data.kind == "gaussian":
            dataset = make_gaussian_mixture(
                num_samples=total,
                num_classes=data.num_classes,
                dim=data.dim,
                separation=data.separation,
                seed=self.spec.seed,
            )
        else:
            dataset = make_synthetic_images(
                num_samples=total,
                num_classes=data.num_classes,
                image_size=data.image_size,
                channels=data.channels,
                seed=self.spec.seed,
                flatten=True,
            )
        return train_test_split(
            dataset, test_fraction=data.num_test / total, seed=self.spec.seed + 1
        )

    def _build_file_partition(
        self, assignment: BipartiteAssignment, train_dataset: Dataset
    ):
        """Non-IID shards for the trainer, or ``None`` for the IID path.

        The partition seed is derived from the scenario seed and the
        partition kind, so it is decoupled from the batch-sampling and
        model-init streams — changing the skew kind re-deals the shards
        without perturbing any other randomness.
        """
        section = self.spec.data.partition
        if section is None:
            return None
        return build_file_partition(
            train_dataset,
            assignment.num_files,
            section.kind,
            alpha=section.alpha,
            seed=derive_seed(self.spec.seed, "partition", section.kind),
            min_per_shard=section.min_per_shard,
        )

    def _build_adversary(self) -> tuple[Attack | None, ScheduledSelector | None]:
        section = self.spec.attack
        if section is None:
            return None, None
        attack = _create("attack", create_attack, section.name, **section.params)
        schedule = AdversarySchedule(**dataclasses.asdict(section.schedule))
        selector = ScheduledSelector(
            schedule, selection=section.selection, seed=self.spec.seed
        )
        return attack, selector

    def build_trainer(self) -> DistributedTrainer:
        """Assemble a fresh trainer for this spec (no observer attached)."""
        return self._assemble(round_observer=None)

    def _assemble(self, round_observer) -> DistributedTrainer:
        spec = self.spec
        assignment = self._build_assignment()
        topology = self._build_topology(assignment)
        pipeline = self._build_pipeline(assignment, topology)
        train_dataset, test_dataset = self._build_datasets()
        model = build_mlp(
            train_dataset.flat_feature_dim,
            num_classes=spec.data.num_classes,
            hidden=spec.model.hidden,
            seed=spec.seed,
            dtype=spec.dtype,
        )
        gradient_computer = ModelGradientComputer(model)
        compressor = None
        if spec.compression is not None:
            compressor = _create(
                "compressor", create_compressor, spec.compression.name, **spec.compression.params
            )
        pool = WorkerPool(assignment, gradient_computer, compressor=compressor)
        attack, selector = self._build_adversary()
        runtime = None
        if spec.runtime.is_event:
            runtime = AsyncRuntime(
                deadline=(
                    float("inf")
                    if spec.runtime.deadline is None
                    else spec.runtime.deadline
                ),
                quorum=spec.runtime.quorum,
                partial=spec.runtime.partial,
            )
        cluster = TrainingCluster(
            assignment=assignment,
            worker_pool=pool,
            attack=attack,
            selector=selector,
            seed=spec.seed,
            fault_injectors=tuple(
                _create("fault", _create_fault_injector, f.kind, **f.params) for f in spec.faults
            ),
            runtime=runtime,
            topology=topology,
        )
        config = TrainingConfig(**dataclasses.asdict(spec.training), seed=spec.seed)
        return DistributedTrainer(
            cluster=cluster,
            pipeline=pipeline,
            gradient_computer=gradient_computer,
            train_dataset=train_dataset,
            test_dataset=test_dataset,
            config=config,
            label=spec.name,
            round_observer=round_observer,
            file_partition=self._build_file_partition(assignment, train_dataset),
        )

    # -- execution -----------------------------------------------------------
    def run(self, verbose: bool = False) -> ScenarioResult:
        """Execute the scenario and return its trace + training history.

        Every component is assembled fresh from the spec and each round runs
        the vectorized engine end to end — the stacked per-file gradient
        pass, tensor-level attack and fault injection, the vectorized
        majority vote and the robust aggregator — while the attached round
        observer digests every stage into the :class:`RunTrace`: the vote
        tensor and the winners of the round's one vote streamed from where
        their rows lie (neither is densified), and the aggregate as the PS
        returned it.  Two
        calls with the same spec are bit-identical, in any process.
        """
        trace = RunTrace(scenario=self.spec.name, spec_digest=self.spec.digest())

        def observe(iteration, round_result, outcome, server):
            trace.append(
                RoundTrace(
                    iteration=iteration,
                    q=len(round_result.byzantine_workers),
                    byzantine=tuple(round_result.byzantine_workers),
                    num_distorted=len(round_result.distorted_files),
                    votes_digest=array_digest(round_result.vote_tensor),
                    winners_digest=array_digest(outcome.winners),
                    aggregate_digest=array_digest(outcome.aggregate),
                    params_digest=server.state_digest(),
                    mean_loss_hex=hex_float(round_result.mean_file_loss),
                    round_time_hex=hex_float(round_result.round_time),
                    faults=tuple(e.as_dict() for e in round_result.fault_events),
                )
            )

        trainer = self._assemble(round_observer=observe)
        history = trainer.train(verbose=verbose)
        trace.final_params_digest = trainer.server.state_digest()
        trace.final_accuracy_hex = hex_float(history.final_accuracy)
        return ScenarioResult(spec=self.spec, trace=trace, history=history)


def run_scenario(spec: ScenarioSpec, verbose: bool = False) -> ScenarioResult:
    """Convenience wrapper: build a runner and execute the spec once."""
    return ScenarioRunner(spec).run(verbose=verbose)
