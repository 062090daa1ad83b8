"""The end-to-end benchmark's timing shims must find their attach points.

``benchmarks/e2e/layers.instrument_trainer`` shims public callables of a live
trainer by name, and ``patch_round_path`` / ``patch_campaign_path`` patch the
names ``execute_spec`` resolves at call time (the trainer class, the runner,
``array_digest`` in ``repro.scenarios.runner``, ``RunTrace.append``).
Renaming or removing one of them would otherwise surface only when the
benchmark gate runs; these tests fail tier-1 instead.
"""

import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

from repro.campaigns.executor import execute_spec
from repro.scenarios.catalog import get_scenario
from repro.scenarios.runner import ScenarioRunner

from paper_oracles import num_edges

E2E_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

#: layers shimmed by ``patch_campaign_path`` or reached only through the
#: run loop or a campaign (every round, synchronous ones included, ends in
#: the event engine, so ``cluster.events`` is on every iteration)
NOT_ON_A_SYNCHRONOUS_ITERATION = {
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
    assert spans_of["cluster.events"] == 1
    # the round's files reach ``batched`` as (inputs, labels) pairs the sample
    # counter can walk, from one draw, one partition and one gather
    assert tracer.counts["training.gradients.samples"] == trainer.config.batch_size
    assert spans_of["data.batching"] <= 3
    # the per-round counters the shims feed are attached too
    assert tracer.counts["comm.messages"] == num_edges(trainer.cluster.assignment)
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
    missing = sorted((NOT_ON_A_SYNCHRONOUS_ITERATION | {"cluster.events"}) - set(spans_of))
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


def test_peak_probe_names_the_stage_that_sets_the_peak():
    """``tools/peak_stages.py`` over one round of ``adaptive-bulyan-noniid``:
    every stage it shims was entered, each stage's peak is at least what it
    held on entry, and the highest stage peak is the run's peak (the round
    and the build are both inside a shimmed stage)."""
    tool = pathlib.Path(__file__).resolve().parents[1] / "tools" / "peak_stages.py"
    result = subprocess.run(
        [sys.executable, str(tool), "adaptive-bulyan-noniid", "--rounds", "1"],
        capture_output=True, text=True, check=True,
    )
    header, columns, *rows = result.stdout.splitlines()
    assert header.startswith("adaptive-bulyan-noniid seed=0 rounds=1: peak ")
    assert columns.split() == ["stage", "calls", "entry", "MiB", "peak", "MiB", "above"]
    peak = float(header.split("peak ")[1].split()[0])
    stages = {}
    for row in rows:
        name, calls, entry, inside, above = row.split()
        stages[name] = (int(calls), float(entry), float(inside))
        assert float(inside) >= float(entry), row
    for stage in (
        "scenarios.build_trainer",
        "training.gradients",
        "attacks.payload",
        "aggregation.robust",
        "kernel.column_mean_std",
        "kernel.bulyan_selection",
        "kernel.override_content_ids",
        "kernel.RowSelection.lanes",
    ):
        assert stages[stage][0] >= 1, stage
    assert max(inside for _, _, inside in stages.values()) == pytest.approx(peak, abs=1e-4)


def test_peak_probe_exits_quietly_into_a_closed_pipe():
    """``peak_stages.py ... | head``: a reader that stops early ends the tool
    with status 0 and nothing on stderr, not a ``BrokenPipeError``.  Run
    without ``PYTHONUNBUFFERED``, as a pipe is written by default: the whole
    table sits in stdout's buffer until it is flushed."""
    tool = pathlib.Path(__file__).resolve().parents[1] / "tools" / "peak_stages.py"
    process = subprocess.Popen(
        [sys.executable, str(tool), "adaptive-bulyan-noniid", "--rounds", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
    )
    process.stdout.close()  # closed before the tool writes its first line
    stderr = process.stderr.read()
    assert process.wait() == 0
    assert stderr == b""


def test_trainer_session_reads_what_the_trainer_exposes():
    """What the benchmark reads off a trainer outside ``instrument_trainer``:
    the set-up stages ``patch_build_stages`` times, ``TrainerSession.failure``
    (``run_iteration``'s record and ``server.params``), ``snapshot``
    (``evaluate``) and the analytic split's ``server.params.size``."""
    layers, Tracer = import_e2e_helpers()
    sys.path.insert(0, str(E2E_DIR))
    try:
        import workloads
    finally:
        sys.path.remove(str(E2E_DIR))

    tracer = Tracer()
    layers.patch_build_stages(tracer)
    try:
        session = workloads.TrainerSession(workloads.Workload("adaptive-bulyan-noniid", 0), tracer)
    finally:
        tracer.restore()
    session.op()

    spans_of = Counter(span[0] for span in tracer.spans)
    assert {"assignment", "data", "model"} <= set(spans_of)
    assert session.failure() is None
    digest, accuracy = session.snapshot()
    assert len(digest) == 16 and int(digest, 16) >= 0
    assert 0.0 <= accuracy <= 1.0
    trainer = session.trainer
    assert trainer.server.params.size == trainer.gradient_computer.model.num_parameters()
