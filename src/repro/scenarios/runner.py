"""Turn a :class:`~repro.scenarios.spec.ScenarioSpec` into a live run.

The runner is the only place that knows how to map spec sections onto the
library's registries and constructors: assignment schemes, aggregation
pipelines, attacks + schedules, fault injectors, compressors, the synthetic
datasets and the MLP substrate.  Each :meth:`ScenarioRunner.run` builds every
component fresh from the spec (no state leaks between runs) and is the
library's one round loop: it steps the
:class:`~repro.training.trainer.DistributedTrainer` down the vectorized
round path — all ``f`` file gradients in one pass through the stacked
per-file engine (:meth:`~repro.training.gradients.ModelGradientComputer.batched`),
packed into a contiguous :class:`~repro.core.vote_tensor.VoteTensor` for
attack/fault injection and the vectorized majority vote — and writes the
run's one record, a bit-exact :class:`~repro.scenarios.trace.RunTrace`.
Recording stays off the data path: it digests what the round already
produced — the vote tensor where it lies (nothing written), named by the
content ids the vote computed, and the
:class:`~repro.core.pipelines.RoundOutcome` the PS returned — and computes
nothing of its own: no second classing pass, each distinct row hashed once.

Because a run is a pure function of its spec, the campaign engine
(:mod:`repro.campaigns`) can execute many runners across worker processes
and obtain traces bit-identical to serial execution.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

from repro.aggregation.mean import MeanAggregator
from repro.aggregation.registry import create_aggregator
from repro.assignment.registry import create_scheme
from repro.attacks.base import Attack
from repro.attacks.registry import create_attack
from repro.attacks.schedules import ScheduledSelector
from repro.cluster.events import AsyncRuntime
from repro.cluster.faults import (
    DropoutInjector,
    FaultInjector,
    MessageCorruptionInjector,
    StragglerInjector,
)
from repro.compression.compressors import Compressor, create_compressor
from repro.core.distortion import majority_threshold
from repro.core.pipelines import AggregationPipeline
from repro.data.batching import build_file_partition
# ``train_test_split`` is not called here: it is the oracle of the fused build
# in ``_build_datasets``.  benchmarks/e2e times the data stage by patching it,
# ``make_gaussian_mixture`` and ``build_file_partition`` on this module.
from repro.data.datasets import Dataset, split_slots, train_test_split  # noqa: F401
from repro.data.synthetic import make_gaussian_mixture, make_synthetic_images
from repro.exceptions import ConfigurationError, ReproError
from repro.graphs.bipartite import BipartiteAssignment
from repro.nn.models import build_mlp
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.trace import (
    EvaluationTrace,
    GuaranteeViolation,
    RoundTrace,
    RunTrace,
    array_digest,
    format_version_for,
    hex_float,
    unexplained_files,
)
from repro.training.gradients import ModelGradientComputer
from repro.training.trainer import DistributedTrainer
from repro.utils.rng import derive_seed

__all__ = ["ScenarioResult", "ScenarioRunner", "run_scenario"]


@dataclass
class ScenarioResult:
    """Everything a scenario run produces: the spec and its trace.

    ``num_files`` is the run's ``f``, the denominator of both distortion
    fractions.
    """

    spec: ScenarioSpec
    trace: RunTrace
    num_files: int

    @property
    def predicted_distortion(self) -> np.ndarray:
        """Per round, the graph's prediction ``num_distorted / f``: the files
        the Byzantine set's placement can corrupt, whatever the vote did."""
        return np.array([r.num_distorted for r in self.trace.rounds]) / self.num_files

    def summary(self) -> dict[str, object]:
        """Flat row for reports and the CLI.

        ``mean_predicted_distortion`` averages :attr:`predicted_distortion`
        over rounds; ``mean_realised_distortion`` is what the vote did
        (``len(realised_distorted) / f``), averaged the same way.
        """
        rounds = self.trace.rounds
        dropped = sum(
            1 for r in rounds for f in r.faults if f.get("dropped")
        )
        corrupted = sum(
            1 for r in rounds for f in r.faults if f.get("kind") == "corruption"
        )
        realised = [len(r.realised_distorted) / self.num_files for r in rounds]
        return {
            "scenario": self.spec.name,
            "rounds": len(rounds),
            "final_accuracy": self.trace.final_accuracy,
            "mean_predicted_distortion": (
                float(self.predicted_distortion.mean()) if rounds else 0.0
            ),
            "mean_realised_distortion": float(np.mean(realised)) if realised else 0.0,
            "max_q": max((r.q for r in rounds), default=0),
            "dropped_contributions": dropped,
            "corrupted_messages": corrupted,
            "simulated_time": self.trace.total_simulated_time,
            "final_params_digest": self.trace.final_params_digest,
        }


def _round_trace(iteration: int, round_result, outcome, server) -> RoundTrace:
    """Digest one round: what it produced and the parameters after the step."""
    refs = outcome.winner_refs
    return RoundTrace(
        iteration=iteration,
        q=len(round_result.byzantine_workers),
        byzantine=tuple(round_result.byzantine_workers),
        num_distorted=len(round_result.distorted_files),
        votes_digest=array_digest(round_result.vote_tensor, outcome.content_ids),
        winners_digest=array_digest(outcome.winners, refs),
        aggregate_digest=array_digest(outcome.aggregate),
        params_digest=server.state_digest(),
        mean_loss_hex=hex_float(round_result.mean_file_loss),
        round_time_hex=hex_float(round_result.round_time),
        faults=tuple(e.as_dict() for e in round_result.fault_events),
        realised_distorted=tuple(refs[refs[:, 1] != 0, 0].tolist()),
        abstained=tuple(np.flatnonzero(outcome.counts == 0).tolist()),
    )


_FAULT_INJECTORS = {
    "stragglers": StragglerInjector,
    "dropout": DropoutInjector,
    "corruption": MessageCorruptionInjector,
}


def _create_fault_injector(kind: str, **params: Any) -> FaultInjector:
    return _FAULT_INJECTORS[kind](**params)


@contextlib.contextmanager
def _section(where: str) -> Iterator[None]:
    """Re-raise a library error from a constructor inside as the
    :class:`ConfigurationError` of the spec path ``where``: the value it
    refused came from that section, and the constructor does not know it."""
    try:
        yield
    except ReproError as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


def _create(where: str, what: str, factory: Callable[..., Any], name: str, params: dict) -> Any:
    """``factory(name, **params)`` on a spec section's free-form ``params``:
    a keyword the named component does not take, or a value it refuses, is
    a configuration error naming the section's path ``where``."""
    with _section(where):
        try:
            return factory(name, **params)
        except TypeError as exc:
            raise ConfigurationError(f"bad parameters for {what} {name!r}: {exc}") from exc


class _Components(NamedTuple):
    """What :meth:`ScenarioRunner.check` builds: the run but its data and model."""

    assignment: BipartiteAssignment
    pipeline: AggregationPipeline
    attack: Attack | None
    selector: ScheduledSelector | None
    fault_injectors: tuple[FaultInjector, ...]
    compressor: Compressor | None
    runtime: AsyncRuntime | None


class ScenarioRunner:
    """Executes one :class:`ScenarioSpec` and records its trace."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec

    # -- component assembly --------------------------------------------------
    def check(self) -> _Components:
        """Build every component the spec names but its data and model, and
        refuse a spec that cannot run before any data exists.

        The one applicability check: a spec section checks only its own
        fields' values, and every condition relating two fields, two
        sections, or a section and a built component is a row of the table
        below, one :class:`ConfigurationError` starting with the dotted
        ``scenario.`` path it names.  The schemes build any ``r``; the
        even-``r`` row is the one odd-``r`` policy.  :meth:`build_trainer`
        calls it first and uses what it built.
        """
        spec, section = self.spec, self.spec.pipeline
        kind, cluster, attack_spec = section.kind, spec.cluster, spec.attack
        batch_size = spec.training.batch_size
        assignment = _create(
            "scenario.cluster.params", "scheme", create_scheme, cluster.scheme, cluster.params
        ).assignment
        K, f = assignment.num_workers, assignment.num_files
        load, r = assignment.computational_load, assignment.replication
        if kind == "draco":  # DRACO averages, whatever aggregator it names
            aggregator = MeanAggregator()
        else:
            aggregator = _create(
                "scenario.pipeline.aggregator_params", "aggregator", create_aggregator,
                section.aggregator, section.aggregator_params,
            )
        attack, selector, max_q = None, None, 0
        if attack_spec is not None:
            attack = _create(
                "scenario.attack.params", "attack", create_attack,
                attack_spec.name, attack_spec.params,
            )
            selector = ScheduledSelector(attack_spec.schedule, attack_spec.selection)
            max_q = attack_spec.schedule.max_q
        fault_injectors = tuple(
            _create(f"scenario.faults[{i}].params", "fault", _create_fault_injector,
                    fault.kind, fault.params)
            for i, fault in enumerate(spec.faults)
        )
        compressor = None
        if spec.compression is not None:
            compressor = _create(
                "scenario.compression.params", "compressor", create_compressor,
                spec.compression.name, spec.compression.params,
            )
        groups = None if spec.topology is None else spec.topology.groups
        # The train split holds exactly ``data.num_train`` rows (split_slots).
        num_train, partition = spec.data.num_train, spec.data.partition
        quorum, r_prime = spec.runtime.quorum, majority_threshold(r)
        needed = aggregator.minimum_votes()
        refusals = (
            (kind in ("detox", "draco") and load != 1,
             f"scenario.cluster: the {kind!r} pipeline needs an FRC assignment (one file "
             f"per worker), got load={load}"),
            (kind == "vanilla" and (load != 1 or r != 1),
             "scenario.cluster: the 'vanilla' pipeline needs the baseline assignment with "
             f"l = r = 1, got l={load}, r={r}"),
            (kind == "vanilla" and section.block_size is not None,
             "scenario.pipeline.block_size: the vanilla pipeline (r = 1) has no vote kernel "
             "to stream"),
            (r > 1 and r % 2 == 0,
             "scenario.cluster: majority voting requires an odd replication factor "
             f"(or r = 1), got r={r}"),
            # A full round hands the aggregator one row per file: the f voted
            # files, DETOX's vote groups or the baseline's workers.  A partial
            # async round can still fall short: the aggregator's own error.
            (needed > f,
             f"scenario.pipeline.aggregator_params: {section.aggregator!r} as configured "
             f"needs at least {needed} votes, but a full round of the {kind!r} pipeline "
             f"on this cluster reduces {f}"),
            (attack_spec is not None
             and (attack_spec.selection == "rotating") != (attack_spec.schedule.kind == "rotating"),
             "scenario.attack: a rotating schedule goes with selection='rotating' and only "
             "with it (the schedule defines the compromised set itself)"),
            (attack_spec is not None and attack_spec.schedule.kind == "ramping"
             and attack_spec.schedule.q_end is None,
             "scenario.attack.schedule: ramping schedule requires q_end"),
            (max_q > K,
             f"scenario.attack.schedule: the schedule reaches q={max_q}, above the K={K} "
             "workers"),
            (kind == "draco" and r < 2 * max_q + 1,
             f"scenario.attack: DRACO requires r >= 2q+1, but r={r} and the schedule "
             f"reaches q={max_q}"),
            # A topology only sets the event engine's quorum cells: without that
            # engine, or with one copy per file (vanilla), it would do nothing.
            (groups is not None and not spec.runtime.is_event,
             "scenario.topology requires an event-driven runtime (set runtime.deadline "
             "and/or runtime.quorum)"),
            (groups is not None and kind == "vanilla",
             "scenario.topology requires a voting pipeline (byzshield, detox or draco); "
             "the vanilla pipeline has one copy per file"),
            (quorum is not None and quorum > r,
             f"scenario.runtime.quorum: runtime quorum {quorum} exceeds the assignment's "
             f"replication r={r}: no file could close"),
            (groups is None and quorum is not None and quorum < r_prime,
             f"scenario.runtime.quorum: runtime quorum {quorum} is below the r'={r_prime} "
             "matching copies the vote needs: no file could be decided"),
            (groups is not None and groups > K,
             f"scenario.topology.groups: runtime groups {groups} exceed the assignment's "
             f"K={K} workers"),
            (batch_size % f != 0,
             f"scenario.training.batch_size: batch_size={batch_size} must be "
             f"divisible by the number of files f={f}"),
            # Non-IID shards wrap around within a batch; the IID sampler cannot.
            (partition is None and batch_size > num_train,
             f"scenario.training.batch_size: batch_size={batch_size} exceeds the "
             f"{num_train} training samples"),
            (partition is not None and f > num_train,
             f"scenario.data.partition: {num_train} training samples cannot give each "
             f"of f={f} shards a sample"),
        )
        for refused, message in refusals:
            if refused:
                raise ConfigurationError(message)

        runtime = None
        if spec.runtime.is_event:
            deadline = spec.runtime.deadline
            runtime = AsyncRuntime(
                float("inf") if deadline is None else deadline, quorum=quorum, groups=groups
            )
        pipeline = AggregationPipeline(assignment, aggregator, section.block_size)
        return _Components(
            assignment, pipeline, attack, selector, fault_injectors, compressor, runtime
        )

    def _build_datasets(self) -> tuple[Dataset, Dataset]:
        """Train and test as read-only views of one array, in the run's dtype.

        The split's permutation comes from its own generator (``seed + 1``),
        so it is drawn first and the data generator (``seed``) writes each
        row straight into its train or test row: the same two datasets as
        ``train_test_split(make_…(total, seed), num_test / total, seed + 1)``,
        with one copy of the data instead of two.
        """
        data = self.spec.data
        total = data.num_train + data.num_test
        slots, num_train = split_slots(
            total, test_fraction=data.num_test / total, seed=self.spec.seed + 1
        )
        if data.kind == "gaussian":
            dataset = make_gaussian_mixture(
                num_samples=total,
                num_classes=data.num_classes,
                dim=data.dim,
                separation=data.separation,
                seed=self.spec.seed,
                slots=slots,
                dtype=self.spec.dtype,
            )
        else:
            dataset = make_synthetic_images(
                num_samples=total,
                num_classes=data.num_classes,
                image_size=data.image_size,
                channels=data.channels,
                seed=self.spec.seed,
                flatten=True,
                slots=slots,
                dtype=self.spec.dtype,
            )
        inputs, labels = dataset.inputs, dataset.labels
        inputs.flags.writeable = labels.flags.writeable = False
        train = dataclasses.replace(dataset, inputs=inputs[:num_train], labels=labels[:num_train])
        test = dataclasses.replace(dataset, inputs=inputs[num_train:], labels=labels[num_train:])
        return train, test

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
        )

    def build_trainer(self) -> DistributedTrainer:
        """Assemble a fresh trainer for this spec: :meth:`check`, then the
        data and the model."""
        spec = self.spec
        parts = self.check()
        train_dataset, test_dataset = self._build_datasets()
        model = build_mlp(
            train_dataset.flat_feature_dim,
            num_classes=spec.data.num_classes,
            hidden=spec.model.hidden,
            seed=spec.seed,
            dtype=spec.dtype,
        )
        return DistributedTrainer(
            parts.pipeline,
            ModelGradientComputer(model),
            train_dataset,
            test_dataset,
            spec.training,
            seed=spec.seed,
            attack=parts.attack,
            selector=parts.selector,
            fault_injectors=parts.fault_injectors,
            runtime=parts.runtime,
            compressor=parts.compressor,
            file_partition=self._build_file_partition(parts.assignment, train_dataset),
        )

    # -- execution -----------------------------------------------------------
    def run(self) -> ScenarioResult:
        """Execute the scenario and return its trace.

        Every component is assembled fresh from the spec.  Each round runs
        the vectorized engine end to end — the stacked per-file gradient
        pass, tensor-level attack and fault injection, the vectorized
        majority vote and the robust aggregator — and is digested into the
        trace before the next one starts: the vote tensor and the winners of
        the round's one vote from the content ids and winner references that
        vote computed (neither is densified), the aggregate as the PS
        returned it and the parameters after the step.  Each recorded round
        is checked against the paper's guarantee
        (:func:`~repro.scenarios.trace.unexplained_files`): a file the graph
        and the round's faults do not explain raises
        :class:`~repro.scenarios.trace.GuaranteeViolation`.  Every
        ``eval_every``-th round and the last are evaluated on the test set.
        Two calls with the same spec are bit-identical, in any process.
        """
        trace = RunTrace(
            scenario=self.spec.name,
            spec_digest=self.spec.digest(),
            format_version=format_version_for(self.spec.dtype),
        )
        trainer = self.build_trainer()
        config = trainer.config
        assignment = trainer.cluster.assignment
        for iteration in range(config.num_iterations):
            # The round's result and outcome live only for this call: the
            # next step reuses their gradient matrix once nothing holds it.
            round_trace = _round_trace(iteration, *trainer.step(iteration), trainer.server)
            trace.append(round_trace)
            realised, abstained = unexplained_files(round_trace, assignment)
            failed = [
                f"files {list(files)} {why}"
                for files, why in (
                    (realised, "realised outside the graph's prediction with no corrupted copy"),
                    (abstained, "abstained with no Byzantine, lost or corrupted copy"),
                )
                if files
            ]
            if failed:
                raise GuaranteeViolation(
                    f"scenario {self.spec.name!r} round {iteration}: " + "; ".join(failed)
                )
            if (iteration + 1) % config.eval_every == 0 or iteration == config.num_iterations - 1:
                metrics = trainer.evaluate()
                trace.evaluations.append(
                    EvaluationTrace(
                        iteration=iteration,
                        test_loss_hex=hex_float(metrics["loss"]),
                        test_accuracy_hex=hex_float(metrics["accuracy"]),
                    )
                )
        trace.final_params_digest = trainer.server.state_digest()
        trace.final_accuracy_hex = trace.evaluations[-1].test_accuracy_hex
        return ScenarioResult(
            spec=self.spec, trace=trace, num_files=trainer.cluster.assignment.num_files
        )


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Convenience wrapper: build a runner and execute the spec once."""
    return ScenarioRunner(spec).run()
