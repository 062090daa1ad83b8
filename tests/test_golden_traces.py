"""The golden-trace regression matrix.

Every catalog scenario is re-run and compared digest-by-digest against its
committed trace under ``tests/golden/``.  A failure here means some layer of
the round data path — worker compute, attack, fault injection, majority
voting, robust aggregation or the optimizer — changed behaviour at the bit
level.  If the change was intentional, regenerate with::

    PYTHONPATH=src python -m repro.cli scenario record

Replay is bit-exact on the machine class that recorded the goldens: a NumPy
with other SIMD dispatch targets rounds some kernels differently, so a
failing replay first names the recorded and the running dispatch.
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
from repro.scenarios.golden import DISPATCH_FILE, numpy_dispatch
from repro.scenarios.trace import RunTrace, TraceMismatch

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


def dispatch_note() -> str:
    recorded = (default_golden_dir() / DISPATCH_FILE).read_text()
    here = numpy_dispatch()
    same = "same" if recorded == here else "DIFFERENT"
    return (
        f"{same} NumPy dispatch: goldens recorded under [{recorded.strip()}], "
        f"replayed under [{here.strip()}]"
    )


@pytest.mark.parametrize("name", NAMES)
def test_scenario_replays_bit_exactly(name):
    try:
        trace = replay_golden(name)
    except TraceMismatch as exc:
        pytest.fail(f"{dispatch_note()}\n{exc}")
    # Bytes, not only values: a serialisation change that replay-by-value
    # forgives (key spelling, float form, an extra key) is named here.
    assert trace.to_json() + "\n" == golden_path(name).read_text(), dispatch_note()


def test_dispatch_note_names_both_dispatch_levels(monkeypatch):
    """What a replay failure on another machine prints first."""
    import repro.scenarios.golden as golden

    monkeypatch.setattr(golden, "opt_func_info", lambda: {"add": {"d": {"current": "X86_V3"}}})
    note = dispatch_note().replace(golden.np.__version__, "V")
    assert note.startswith("DIFFERENT NumPy dispatch: goldens recorded under [numpy V\ndispatch ")
    assert note.endswith("], replayed under [numpy V\ndispatch X86_V3]")


def test_a_subset_recording_keeps_the_recorded_dispatch(tmp_path, monkeypatch):
    """Re-recording a subset keeps the note the other traces were recorded
    under (a fresh directory gets one); recording the catalog (here cut to
    one scenario) rewrites it."""
    import repro.scenarios.golden as golden

    golden.record_goldens(["mols-clean"], golden_dir=tmp_path / "fresh")
    assert (tmp_path / "fresh" / DISPATCH_FILE).read_text() == numpy_dispatch()
    note = tmp_path / DISPATCH_FILE
    note.write_text("numpy 0\ndispatch ELSEWHERE\n")
    golden.record_goldens(["ramanujan-clean"], golden_dir=tmp_path)
    assert note.read_text() == "numpy 0\ndispatch ELSEWHERE\n"
    monkeypatch.setattr(golden, "scenario_names", lambda: ["ramanujan-clean"])
    golden.record_goldens(golden_dir=tmp_path)
    assert note.read_text() == numpy_dispatch()
    assert golden_path("ramanujan-clean", tmp_path).read_text() == golden_path(
        "ramanujan-clean"
    ).read_text()


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
