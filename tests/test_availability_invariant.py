"""A copy that did not arrive abstains: availability faults never forge a vote.

Stragglers past their timeout, crashed workers and copies the event engine
rejects as late are all one thing to the parameter server: a copy it did
not receive.  Such a copy is not counted as a zero vote, and a file is
decided only by r' = ``majority_threshold(r)`` matching accepted copies,
so with no adversary the vote returns every file's honest gradient or
nothing, however many copies are missing.  With an adversary, the vote
returns a Byzantine payload only for a file the graph predicted (r' of its
copies are Byzantine) — the paper's guarantee — unless a message was
corrupted in flight that round.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.assignment.mols import MOLSAssignment
from repro.cluster.faults import StragglerInjector
from repro.core.distortion import distorted_files
from repro.core.pipelines import AggregationPipeline
from repro.nn.models import build_mlp
from repro.scenarios import get_scenario, golden_path, run_scenario, scenario_names
from repro.scenarios.runner import ScenarioRunner, _round_trace
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.trace import RunTrace
from repro.scenarios.spec import TrainingSpec
from repro.training import ModelGradientComputer
from repro.training.trainer import DistributedTrainer

AVAILABILITY = ("straggler", "dropout", "late")


def test_two_abandoned_copies_of_a_file_do_not_out_vote_its_honest_one(
    small_classification_data,
):
    """r = 3, q = 0, no runtime: the straggler timeout abandons two workers
    that share a file.  Its one accepted copy is honest but short of r' = 2,
    so the file abstains: no row, nothing distorted, and the trace says so."""
    train, test = small_classification_data
    assignment = MOLSAssignment(load=5, replication=3).assignment
    trainer = DistributedTrainer(
        AggregationPipeline(assignment),
        ModelGradientComputer(build_mlp(train.flat_feature_dim, 4, hidden=(16,), seed=0)),
        train,
        test,
        TrainingSpec(batch_size=150, num_iterations=1),
        seed=3,  # the two abandoned workers share a file
        fault_injectors=(StragglerInjector(count=2, delay_model="fixed", delay=2.0, timeout=1.0),),
    )

    round_result, outcome = trainer.step(0)
    lost = (~round_result.accepted).sum(axis=1)
    assert lost.max() == 2 and trainer.cluster.runtime.deadline == 1.0
    (file,) = np.nonzero(lost == 2)[0]
    assert round_result.byzantine_workers == ()
    kept = np.delete(np.arange(assignment.num_files), file)
    assert np.array_equal(outcome.winner_refs[:, 0], kept)
    assert (outcome.winner_refs[:, 1] == 0).all()
    assert np.flatnonzero(outcome.counts == 0).tolist() == [file]
    honest = round_result.honest_matrix
    assert outcome.winners.densified().tobytes() == honest[kept].tobytes()
    trace = _round_trace(0, round_result, outcome, trainer.server)
    assert trace.realised_distorted == () and trace.abstained == (file,)


def _without_adversary(base: str, **changes) -> ScenarioSpec:
    data = get_scenario(base).to_dict()
    data.pop("attack", None)
    data.update(name=f"{base}-q0", **changes)
    return ScenarioSpec.from_dict(data)


STRAGGLERS = {"kind": "stragglers", "params": {"count": 5, "delay_model": "exponential", "delay": 0.5}}

#: q = 0 under each availability fault alone; none of them sets ``partial``
AVAILABILITY_SPECS = {
    "straggler-timeout": lambda: _without_adversary(
        "mols-alie-straggler-timeout",
        faults=[{"kind": "stragglers", "params": {"count": 6, "delay_model": "exponential",
                                                  "delay": 0.5, "timeout": 0.5}}],
    ),
    "dropout": lambda: _without_adversary(
        "mols-noise-dropout",
        faults=[{"kind": "dropout", "params": {"probability": 0.3, "down_for": 2}}],
    ),
    "deadline-lates": lambda: _without_adversary(
        "mols-async-deadline-stragglers", faults=[STRAGGLERS], runtime={"deadline": 0.4},
    ),
    "group-quorum-lates": lambda: _without_adversary(
        "ramanujan-hier-async-group-quorum",
        faults=[STRAGGLERS],
        runtime={"deadline": 0.45, "quorum": 2},
        topology={"groups": 3},
    ),
}


@pytest.mark.parametrize("fault", sorted(AVAILABILITY_SPECS))
def test_without_an_adversary_no_availability_fault_distorts_a_file(fault):
    trace = run_scenario(AVAILABILITY_SPECS[fault]()).trace
    lost = [f for r in trace.rounds for f in r.faults if f["dropped"]]
    assert lost and {f["kind"] for f in lost} <= set(AVAILABILITY)
    assert all(r.q == 0 and r.realised_distorted == () for r in trace.rounds)


def _lost_copy_files(faults, assignment) -> set[int]:
    """Files that lost at least one copy this round, from its fault records."""
    files: set[int] = set()
    for fault in faults:
        if fault["kind"] == "late":
            files.add(fault["file"])
        elif fault["dropped"]:
            files.update(int(i) for i in assignment.files_of_worker(fault["worker"]))
    return files


def _rounds(name):
    """``(assignment, round, predicted files)`` of every recorded round of
    golden ``name``, the prediction checked against its ``num_distorted``."""
    assignment = ScenarioRunner(get_scenario(name)).check().assignment
    for r in RunTrace.from_json_file(golden_path(name)).rounds:
        predicted = {int(i) for i in distorted_files(assignment, r.byzantine)} if r.q else set()
        assert len(predicted) == r.num_distorted
        yield assignment, r, predicted


@pytest.mark.parametrize("name", scenario_names())
def test_the_vote_exceeds_the_graph_only_where_a_copy_was_lost_or_corrupted(name):
    """Per recorded round without a message corrupted in flight: the vote
    lets through only predicted files (realised ⊆ predicted) — a lost copy
    can make a file abstain, never exceed the graph — and a file abstains
    only if it held a Byzantine copy or lost one."""
    for assignment, r, predicted in _rounds(name):
        if any(f["kind"] == "corruption" for f in r.faults):
            continue
        assert set(r.realised_distorted) <= predicted, (name, r.iteration)
        touched = {int(i) for w in r.byzantine for i in assignment.files_of_worker(w)}
        allowed = touched | _lost_copy_files(r.faults, assignment)
        assert set(r.abstained) <= allowed, (name, r.iteration)


@pytest.mark.parametrize("name", scenario_names())
def test_a_round_without_faults_decides_each_predicted_file_or_abstains(name):
    """Per recorded round with no fault at all: predicted = realised ∪
    abstained — a predicted file either goes to its Byzantine payload or,
    when its Byzantine copies disagree, abstains, and every other file is
    decided honest.  A Byzantine payload bit-equal to its file's honest row
    would be decided honest and break the equality; no golden sends one, so
    it is asserted exactly."""
    for _, r, predicted in _rounds(name):
        if not r.faults:
            assert predicted == set(r.realised_distorted) | set(r.abstained), (name, r.iteration)
