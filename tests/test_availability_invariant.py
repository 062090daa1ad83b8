"""A copy that did not arrive abstains: availability faults never forge a vote.

Stragglers past their timeout, crashed workers and copies the event engine
rejects as late are all one thing to the parameter server: a copy it did
not receive.  Such a copy is not counted as a zero vote, and a file is
decided only by r' = ``majority_threshold(r)`` matching accepted copies,
so with no adversary the vote returns every file's honest gradient or
nothing, however many copies are missing.  With an adversary, the vote
returns a Byzantine payload only for a file the graph predicted (r' of its
copies are Byzantine) — the paper's guarantee — or for a file with a copy
corrupted in flight.  ``unexplained_files`` is that accounting; every run
checks it on each round it records, and here it runs over the goldens and
over hand-made rounds.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.assignment.mols import MOLSAssignment
from repro.cluster.faults import FaultEvent, StragglerInjector
from repro.core.distortion import distorted_files
from repro.core.pipelines import AggregationPipeline
from repro.nn.models import build_mlp
from repro.scenarios import get_scenario, golden_path, run_scenario, scenario_names
from repro.scenarios.runner import ScenarioRunner, _round_trace
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.spec import TrainingSpec
from repro.scenarios.trace import (
    GuaranteeViolation,
    RoundTrace,
    RunTrace,
    hex_float,
    unexplained_files,
)
from repro.training import ModelGradientComputer
from repro.training.trainer import DistributedTrainer

from paper_oracles import workers_of_file

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


def _golden(name):
    """``(assignment, recorded rounds)`` of golden ``name``."""
    assignment = ScenarioRunner(get_scenario(name)).check().assignment
    return assignment, RunTrace.from_json_file(golden_path(name)).rounds


@pytest.mark.parametrize("name", scenario_names())
def test_every_recorded_round_is_explained_by_the_graph_or_its_faults(name):
    """The run's own check, over the recorded goldens, corrupted rounds
    included: a stored trace passes the accounting its run passed."""
    assignment, rounds = _golden(name)
    for r in rounds:
        assert unexplained_files(r, assignment) == ((), ()), (name, r.iteration)


@pytest.mark.parametrize("name", scenario_names())
def test_a_round_without_faults_decides_each_predicted_file_or_abstains(name):
    """Per recorded round with no fault at all: predicted = realised ∪
    abstained — a predicted file either goes to its Byzantine payload or,
    when its Byzantine copies disagree, abstains, and every other file is
    decided honest.  A Byzantine payload bit-equal to its file's honest row
    would be decided honest and break the equality; no golden sends one, so
    it is asserted exactly."""
    assignment, rounds = _golden(name)
    for r in rounds:
        if not r.faults:
            predicted = set(distorted_files(assignment, r.byzantine).tolist())
            assert predicted == set(r.realised_distorted) | set(r.abstained), (name, r.iteration)


# -- the accounting on hand-made rounds ---------------------------------------
#: MOLS l = 5, r = 3: K = 15 workers, f = 25 files, r' = 2
MOLS = MOLSAssignment(load=5, replication=3).assignment


def _round(byzantine=(), realised=(), abstained=(), faults=(), num_distorted=None):
    predicted = distorted_files(MOLS, byzantine)
    return RoundTrace(
        iteration=4,
        q=len(byzantine),
        byzantine=tuple(byzantine),
        num_distorted=len(predicted) if num_distorted is None else num_distorted,
        votes_digest="",
        winners_digest="",
        aggregate_digest="",
        params_digest="",
        mean_loss_hex=hex_float(0.0),
        faults=tuple(e.as_dict() for e in faults),
        realised_distorted=tuple(realised),
        abstained=tuple(abstained),
    )


def _pair_sharing(file):
    """Two workers holding ``file``: r' = 2 Byzantine copies predict it."""
    return workers_of_file(MOLS, file)[:2]


def _untouched(*workers):
    """The first file none of ``workers`` holds."""
    held = {i for w in workers for i in MOLS.files_of_worker(w)}
    return next(i for i in range(MOLS.num_files) if i not in held)


def test_a_predicted_realised_file_is_explained():
    byzantine = _pair_sharing(3)
    (predicted,) = distorted_files(MOLS, byzantine)
    assert predicted == 3
    assert unexplained_files(_round(byzantine, realised=(3,)), MOLS) == ((), ())


def test_a_file_won_by_a_forged_zero_class_is_explained_only_by_its_corrupted_copies():
    """q = 0: zero-mode corruption of two copies of file 7 writes one class
    of r' identical rows, which out-votes the honest copy."""
    w0, w1 = _pair_sharing(7)
    torn = [FaultEvent(kind="corruption", worker=w, file=7) for w in (w0, w1)]
    assert unexplained_files(_round(realised=(7,), faults=torn), MOLS) == ((), ())
    assert unexplained_files(_round(realised=(7,)), MOLS) == ((7,), ())


def test_an_unpredicted_realised_file_is_named():
    """A lost copy does not explain it: losing a copy cannot forge a class."""
    byzantine = _pair_sharing(3)
    stray = _untouched(*byzantine)
    late = FaultEvent(kind="late", worker=workers_of_file(MOLS, stray)[0], file=stray, slot=0,
                      dropped=True)
    found = unexplained_files(_round(byzantine, realised=(3, stray), faults=[late]), MOLS)
    assert found == ((stray,), ())


def test_an_abstained_file_with_no_lost_byzantine_or_corrupted_copy_is_named():
    byzantine = _pair_sharing(3)
    dropped = next(w for w in range(MOLS.num_workers) if w not in byzantine)
    lost = MOLS.files_of_worker(dropped)[0]
    late_file = _untouched(*byzantine, dropped)
    late = FaultEvent(kind="late", worker=workers_of_file(MOLS, late_file)[0], file=late_file,
                      slot=0, dropped=True)
    stray = _untouched(*byzantine, dropped, *workers_of_file(MOLS, late_file))
    faults = [FaultEvent(kind="dropout", worker=dropped, dropped=True), late]
    explained = (3, lost, late_file)
    trace = _round(byzantine, abstained=sorted(explained + (stray,)), faults=faults)
    assert unexplained_files(trace, MOLS) == ((), (stray,))


def test_a_trace_whose_prediction_is_not_the_graphs_is_refused():
    with pytest.raises(GuaranteeViolation, match="round 4: num_distorted 2 != the 1 files"):
        unexplained_files(_round(_pair_sharing(3), num_distorted=2), MOLS)


def test_zero_corruption_runs_clean_with_files_explained_only_by_their_corrupted_copies():
    """30 % of messages torn to zero: the run raises nothing, and some
    realised file is explained only by its corrupted copies — without
    them the accounting names it."""
    data = get_scenario("mols-corruption-zero").to_dict()
    data.update(name="mols-corruption-zero-30",
                faults=[{"kind": "corruption", "params": {"probability": 0.3, "mode": "zero"}}])
    spec = ScenarioSpec.from_dict(data)
    assignment = ScenarioRunner(spec).check().assignment
    forged = []
    for r in run_scenario(spec).trace.rounds:
        intact = dataclasses.replace(
            r, faults=tuple(f for f in r.faults if f["kind"] != "corruption")
        )
        forged += unexplained_files(intact, assignment)[0]
    assert forged
