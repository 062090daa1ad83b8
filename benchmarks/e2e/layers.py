"""Where the benchmark attaches its timing shims, and the per-layer report.

One table maps every layer of the round path to the public callable whose
span measures it (see README.md).  Live objects are shimmed per instance;
names a module resolves at call time (``partition_batch_into_files``,
``EventDrivenRound``, and everything ``execute_spec`` builds internally) are
patched on the module or class for the length of the traced pass only.
"""

from __future__ import annotations

import statistics
from typing import Any

from spans import Tracer, layer_totals

import repro.scenarios.runner as runner_module
import repro.training.trainer as trainer_module
from repro.cluster.events import LATE_KIND, EventDrivenRound
from repro.scenarios.trace import RunTrace

__all__ = [
    "LAYERS",
    "COUNTS",
    "SETUP_STAGES",
    "instrument_trainer",
    "patch_round_path",
    "patch_campaign_path",
    "patch_build_stages",
    "layer_metrics",
]

LAYERS = (
    "data.batching",
    "training.gradients",
    "cluster.worker",
    "attacks.selection",
    "attacks.payload",
    "cluster.faults",
    "cluster.events",
    "cluster.simulator",
    "aggregation.majority",
    "aggregation.robust",
    "nn.optim",
    "cluster.server",
    "training.trainer",
    "scenarios.runner",
    "scenarios.trace",
    "campaigns.executor",
)

#: per-round counts recorded at the layer boundaries
COUNTS = (
    "training.gradients.samples",
    "core.vote_tensor.overridden_slots",
    "core.vote_tensor.override_mb",
    "comm.messages",
    "comm.mb",
    "aggregation.majority.distorted_files",
    "cluster.events.accepted_share",
    "cluster.events.late",
    "cluster.faults.events",
    "scenarios.trace.digest_mb",
)

SETUP_STAGES = ("assignment", "data", "model", "selection", "first_round")

_MIB = float(1 << 20)


def _count_samples(tracer: Tracer, args: tuple, result: Any) -> None:
    files = args[-1]
    tracer.counts["training.gradients.samples"] += sum(
        inputs.shape[0] for inputs, _ in files
    )


def _count_round(tracer: Tracer, args: tuple, result: Any) -> None:
    counts = tracer.counts
    tensor = result.vote_tensor
    row_mb = tensor.dim * tensor.dtype.itemsize / _MIB
    overridden = tensor.num_overridden_slots
    counts["core.vote_tensor.overridden_slots"] += overridden
    counts["core.vote_tensor.override_mb"] += overridden * row_mb
    counts["comm.messages"] += tensor.workers.size
    counts["comm.mb"] += tensor.workers.size * row_mb
    counts["aggregation.majority.distorted_files"] += len(result.distorted_files)
    counts["cluster.events.accepted_share"] += (
        1.0 if result.accepted is None else float(result.accepted.mean())
    )
    counts["cluster.events.late"] += sum(
        1 for event in result.fault_events if event.kind == LATE_KIND
    )


def _count_faults(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["cluster.faults.events"] += len(result)


def _count_digest(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["scenarios.trace.digest_mb"] += args[0].nbytes / _MIB


def instrument_trainer(tracer: Tracer, trainer: Any) -> None:
    """Shim the public round-path callables of one live trainer."""
    wrap = tracer.wrap
    sampler = trainer.sampler
    for attr in ("next_batch", "next_batch_files", "batch_data"):
        wrap(sampler, attr, "data.batching")
    wrap(trainer.gradient_computer, "batched", "training.gradients", _count_samples)
    cluster = trainer.cluster
    wrap(cluster.worker_pool, "honest_returns_tensor", "cluster.worker")
    if cluster.selector is not None:
        wrap(cluster.selector, "select", "attacks.selection")
        wrap(cluster.attack, "apply_tensor", "attacks.payload")
    for injector in cluster.fault_injectors:
        wrap(injector, "inject", "cluster.faults", _count_faults)
    wrap(cluster, "run_round_tensor", "cluster.simulator", _count_round)
    pipeline = trainer.pipeline
    wrap(pipeline, "aggregate_tensor", "aggregation.majority")
    # The pipeline only ever *calls* its aggregator, so a plain function shim
    # stands in for the instance (``__call__`` cannot be shimmed per instance).
    wrap(pipeline, "aggregator", "aggregation.robust")
    server = trainer.server
    wrap(server.optimizer, "step_vector", "nn.optim")
    wrap(server, "update_tensor", "cluster.server")
    params_mb = server.params.nbytes / _MIB

    def count_state_digest(tracer: Tracer, args: tuple, result: Any) -> None:
        tracer.counts["scenarios.trace.digest_mb"] += params_mb

    wrap(server, "state_digest", "scenarios.trace", count_state_digest)
    wrap(trainer, "run_iteration", "training.trainer")


def patch_round_path(tracer: Tracer) -> None:
    """Patch the two round-path names that are resolved at call time."""
    tracer.patch(trainer_module, "partition_batch_into_files", "data.batching")
    tracer.patch(EventDrivenRound, "collect", "cluster.events")


def patch_campaign_path(tracer: Tracer) -> None:
    """Patch what ``execute_spec`` builds internally: the trainer (shimmed as
    it is constructed, observer included), the runner and the trace digests."""
    trainer_class = runner_module.DistributedTrainer

    def build_traced_trainer(*args: Any, **kwargs: Any) -> Any:
        observer = kwargs.get("round_observer")
        if observer is not None:
            kwargs["round_observer"] = tracer.shim(observer, "scenarios.runner")
        trainer = trainer_class(*args, **kwargs)
        instrument_trainer(tracer, trainer)
        return trainer

    tracer.patch_value(runner_module, "DistributedTrainer", build_traced_trainer)
    tracer.patch(runner_module.ScenarioRunner, "run", "scenarios.runner")
    tracer.patch(runner_module, "array_digest", "scenarios.trace", _count_digest)
    tracer.patch(RunTrace, "append", "scenarios.trace")


def patch_build_stages(tracer: Tracer) -> None:
    """Patch the constructors ``ScenarioRunner`` calls while assembling."""
    tracer.patch(runner_module, "create_scheme", "assignment")
    for attr in ("make_gaussian_mixture", "train_test_split", "build_file_partition"):
        tracer.patch(runner_module, attr, "data")
    tracer.patch(runner_module, "build_mlp", "model")


def layer_metrics(
    tracer: Tracer, op_walls_ns: "list[int]", rounds_per_op: int
) -> dict[str, float]:
    """Per-layer self time, share and calls, plus the per-round counts.

    ``op_walls_ns`` are the walls of the traced ops as the driving loop
    measured them, outside every shim: shares and ``trace.coverage`` are
    taken against those, not against the spans' own clock.
    """
    num_ops = len(op_walls_ns)
    rounds = num_ops * rounds_per_op
    wall = float(sum(op_walls_ns))
    totals = layer_totals(tracer.spans)
    out: dict[str, float] = {}
    covered = 0.0
    for layer in LAYERS:
        per_op = totals.get(layer, {})
        own = [per_op.get(op, (0, 0))[0] for op in range(num_ops)]
        covered += sum(own)
        out[f"{layer}.self_ms"] = statistics.median(own) / rounds_per_op / 1e6
        out[f"{layer}.share"] = sum(own) / wall
        out[f"{layer}.calls"] = sum(cell[1] for cell in per_op.values()) / rounds
    for name in COUNTS:
        out[name] = tracer.counts.get(name, 0.0) / rounds
    out["fig12.compute_share"] = (
        out["training.gradients.share"] + out["data.batching.share"]
    )
    out["fig12.aggregation_share"] = sum(
        out[f"{layer}.share"]
        for layer in ("aggregation.majority", "aggregation.robust", "cluster.server", "nn.optim")
    )
    out["trace.coverage"] = covered / wall
    return out
