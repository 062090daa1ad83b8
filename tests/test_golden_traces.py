"""The golden-trace regression matrix.

Every catalog scenario is re-run and compared digest-by-digest against its
committed trace under ``tests/golden/``.  A failure here means some layer of
the round data path — worker compute, attack, fault injection, majority
voting, robust aggregation or the optimizer — changed behaviour at the bit
level.  If the change was intentional, regenerate with::

    PYTHONPATH=src python -m repro.cli scenario record
"""

from __future__ import annotations

import json

import pytest

from repro.scenarios import (
    default_golden_dir,
    get_scenario,
    golden_path,
    replay_golden,
    run_scenario,
    scenario_names,
)
from repro.scenarios.trace import RunTrace

NAMES = scenario_names()


def test_matrix_covers_acceptance_envelope():
    """≥ 20 scenarios spanning ≥ 3 schemes, ≥ 3 attacks, stragglers, dropout
    and a rotating adversary (the ISSUE's acceptance floor)."""
    specs = [get_scenario(name) for name in NAMES]
    assert len(specs) >= 20
    assert len({s.cluster.scheme for s in specs}) >= 3
    assert len({s.attack.name for s in specs if s.attack}) >= 3
    fault_kinds = {f.kind for s in specs for f in s.faults}
    assert {"stragglers", "dropout"} <= fault_kinds
    assert any(
        s.attack is not None and s.attack.schedule.kind == "rotating" for s in specs
    )


def test_every_scenario_has_a_golden_trace():
    missing = [name for name in NAMES if not golden_path(name).exists()]
    assert not missing, (
        f"missing golden traces for {missing}; run 'repro scenario record'"
    )


def test_no_orphan_golden_traces():
    orphans = [
        path.stem
        for path in sorted(default_golden_dir().glob("*.json"))
        if path.stem not in NAMES
    ]
    assert not orphans, f"golden traces without catalog scenarios: {orphans}"


@pytest.mark.parametrize("name", NAMES)
def test_scenario_replays_bit_exactly(name):
    trace = replay_golden(name)
    # Bytes, not only values: a serialisation change that replay-by-value
    # forgives (key spelling, float form, an extra key) is named here.
    assert trace.to_json() + "\n" == golden_path(name).read_text()


@pytest.mark.parametrize("name", NAMES[:3])
def test_golden_files_are_valid_self_describing_json(name):
    data = json.loads(golden_path(name).read_text())
    trace = RunTrace.from_dict(data)
    assert trace.scenario == name
    assert trace.spec_digest == get_scenario(name).digest()
    assert len(trace.rounds) == get_scenario(name).training.num_iterations


def test_spec_digest_guards_against_silent_catalog_edits():
    """If a catalog scenario definition drifts, the replay must fail on the
    spec digest (not silently compare different runs)."""
    name = NAMES[0]
    golden = RunTrace.from_json_file(golden_path(name))
    result = run_scenario(get_scenario(name))
    assert result.trace.spec_digest == golden.spec_digest
