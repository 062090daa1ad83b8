"""Every golden, replayed through the reference round.

The goldens were recorded by the engine they guard; ``reference_round.py``
computes the same rounds from the paper's definitions, in loops.  Each round
of the reference must match the engine's run of the spec and the golden on
every field of the trace, bit for bit.  Each golden is one case per stage,
in the order the round computes them, so its first failing case names the
first stage that differs: against the engine for a defect in a stage the
reference computes itself, against the golden for one in a part both share
(the attack's payload, the step).  No golden needs a tolerance: the
textbook Krum, Multi-Krum and Bulyan (explicit distances, one sort per
coordinate) pick the engine's rows and reduce them in its order on all 46.
"""

from __future__ import annotations

import functools

import pytest

from repro.scenarios import get_scenario, golden_path, run_scenario, scenario_names
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.trace import RunTrace

from reference_round import reference_rounds


#: the trace's fields by the stage of the round that sets them, in order;
#: the adversary's draw and the graph's prediction are one stage
STAGES = {"draw": ("iteration", "q", "byzantine", "num_distorted")} | {
    field: (field,) for field in ("mean_loss_hex", "votes_digest", "faults", "round_time_hex",
                                  "winners_digest", "realised_distorted", "abstained",
                                  "aggregate_digest", "params_digest")}


def first_mismatch(rounds, trace_rounds, fields=None):
    """``"round t: field ..."`` of the first of ``fields`` (all by default)
    that differs in the first round that differs at all, else None: later
    rounds start from other parameters, so they name no stage."""
    for mine, theirs in zip(rounds, trace_rounds):
        found = {}
        for field, value in mine.items():
            expected = getattr(theirs, field)
            if field == "faults":
                expected = tuple(dict(event) for event in expected)
            if value != expected:
                found[field] = f"round {mine['iteration']}: {field} {value!r} != {expected!r}"
        if found:
            return next((found[field] for field in fields or found if field in found), None)
    return None


@functools.cache
def replay(name):
    """The reference's rounds of ``name``, and the engine's and the golden's."""
    spec = get_scenario(name)
    golden = RunTrace.from_json_file(golden_path(name))
    traces = {"engine": run_scenario(spec).trace.rounds, "golden": golden.rounds}
    return list(reference_rounds(spec)), traces


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("name", scenario_names())
def test_reference_round_replays_the_golden(name, stage):
    rounds, traces = replay(name)
    for source, trace_rounds in traces.items():
        assert len(rounds) == len(trace_rounds), source
        assert first_mismatch(rounds, trace_rounds, STAGES[stage]) is None, source


#: equal runs the paper predicts, each a tuple of catalog scenarios.
#: ``ramanujan-hier-async-group-quorum`` and ``ramanujan-alie-omniscient``
#: also end equal, by luck: the two copies the group quorum loses each
#: round (files 8 and 16) happen not to change a winner.  Nothing predicts
#: that, so it is not asserted.
EQUAL_RUNS = {
    # the DRACO vote recovers every file at r = 2q + 1
    "draco-exact": ("draco-constant-q1", "draco-clean-stragglers"),
    # with no distorted file the model is the clean one, whatever the
    # placement: the same 25 files, and a rotating q = 5 window never holds
    # r' = 3 copies of one
    "no-distortion": ("ramanujan-clean", "mols-clean", "ramanujan-constant-rotating"),
    # a straggler with no timeout moves the clock, not the model
    "untimed-straggler": ("mols-alie-stragglers", "mols-alie-omniscient"),
}


def reseeded(name, seed):
    data = get_scenario(name).to_dict()
    data["seed"] = seed
    return ScenarioSpec.from_dict(data)


@pytest.mark.parametrize("claim", sorted(EQUAL_RUNS))
def test_predicted_equal_runs_agree_on_every_round(claim):
    """At the golden seed and at another one, every round's aggregate is
    equal across the class; at the other seed the engine's trace is the
    reference's too."""
    for seed in (None, 11):
        series = []
        for name in EQUAL_RUNS[claim]:
            spec = get_scenario(name) if seed is None else reseeded(name, seed)
            rounds = list(reference_rounds(spec))
            if seed is not None:
                assert first_mismatch(rounds, run_scenario(spec).trace.rounds) is None
            series.append([one["aggregate_digest"] for one in rounds])
        assert all(digests == series[0] for digests in series), (claim, seed)
