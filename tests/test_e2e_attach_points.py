"""The end-to-end benchmark's timing shims must find their attach points.

``benchmarks/e2e/layers.instrument_trainer`` shims public callables of a live
trainer by name, and ``patch_round_path`` / ``patch_campaign_path`` patch the
names ``execute_spec`` resolves at call time (the trainer class, the runner,
``array_digest`` in ``repro.scenarios.runner``, ``RunTrace.append``).
Renaming or removing one of them would otherwise surface only when the
benchmark gate runs; these tests fail tier-1 instead.
"""

import pathlib
import sys
from collections import Counter

import pytest

from repro.campaigns.executor import execute_spec
from repro.scenarios.catalog import get_scenario
from repro.scenarios.runner import ScenarioRunner

E2E_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

#: layers shimmed elsewhere (``patch_round_path`` / ``patch_campaign_path``)
#: or reached only through an observer or the async runtime
NOT_ON_A_SYNCHRONOUS_ITERATION = {
    "cluster.events",
    "scenarios.runner",
    "scenarios.trace",
    "campaigns.executor",
}


def import_e2e_helpers():
    """The benchmark imports its helpers as plain modules off its own directory."""
    sys.path.insert(0, str(E2E_DIR))
    try:
        import layers
        from spans import Tracer
    finally:
        sys.path.remove(str(E2E_DIR))
    return layers, Tracer


def test_instrument_trainer_records_every_synchronous_layer():
    layers, Tracer = import_e2e_helpers()

    # ALIE + stragglers + churn + corruption: selector, attack and fault
    # injectors are all present, so every synchronous layer has work to do.
    trainer = ScenarioRunner(get_scenario("mols-alie-all-faults")).build_trainer()
    tracer = Tracer()
    layers.instrument_trainer(tracer, trainer)
    layers.patch_round_path(tracer)
    try:
        trainer.run_iteration(0)
    finally:
        tracer.restore()

    spans_of = Counter(span[0] for span in tracer.spans)
    expected = set(layers.LAYERS) - NOT_ON_A_SYNCHRONOUS_ITERATION
    assert expected <= set(spans_of), f"no span recorded for {sorted(expected - set(spans_of))}"
    # the round's files reach ``batched`` as (inputs, labels) pairs the sample
    # counter can walk, from one draw, one partition and one gather
    assert tracer.counts["training.gradients.samples"] == trainer.config.batch_size
    assert spans_of["data.batching"] <= 3
    # the per-round counters the shims feed are attached too
    assert tracer.counts["comm.messages"] == trainer.cluster.assignment.num_edges
    assert tracer.counts["core.vote_tensor.overridden_slots"] > 0


def test_campaign_path_patches_record_the_observed_cell():
    """What ``async-hier-cells-traced`` does to one cell: async rounds, a group
    topology, the observer attached, everything built inside ``execute_spec``."""
    layers, Tracer = import_e2e_helpers()
    spec = get_scenario("ramanujan-hier-async-group-quorum")
    trainer = ScenarioRunner(spec).build_trainer()
    votes_shape = trainer.cluster.assignment.worker_slot_matrix().shape
    params = trainer.server.params
    rounds = spec.training.num_iterations

    tracer = Tracer()
    layers.patch_round_path(tracer)
    layers.patch_campaign_path(tracer)
    try:
        record = tracer.shim(execute_spec, "campaigns.executor")(spec)
    finally:
        tracer.restore()

    assert len(record.trace["rounds"]) == rounds
    spans_of = Counter(span[0] for span in tracer.spans)
    missing = sorted(NOT_ON_A_SYNCHRONOUS_ITERATION - set(spans_of))
    assert not missing, f"no span recorded for {missing}"
    # the observer reads the round's one vote; it does not run another
    assert spans_of["aggregation.majority"] == rounds
    # every digest is counted at its logical size, streamed or not: per round
    # the (f, r, d) votes, the (f, d) winners, the aggregate and the
    # parameters; then the cell's final state digest
    files, replication = votes_shape
    per_round = (files * replication + files + 1 + 1) * params.nbytes
    digested = rounds * per_round + params.nbytes
    assert tracer.counts["scenarios.trace.digest_mb"] == pytest.approx(
        digested / float(1 << 20), rel=1e-12
    )
