"""Worker groups under the event-driven runtime: per-(file, group) quorum cells."""

from __future__ import annotations

import numpy as np
import pytest

from repro.assignment.frc import FRCAssignment
from repro.cluster.events import LATE_KIND, AsyncRuntime, EventDrivenRound
from repro.core.vote_tensor import VoteTensor
from repro.exceptions import ConfigurationError, ReproError
from repro.scenarios.catalog import get_scenario
from repro.scenarios.runner import ScenarioRunner, run_scenario
from repro.scenarios.spec import ScenarioSpec

from cow_helpers import stored_rows


@pytest.fixture(scope="module")
def frc_6():
    """Six workers, r=3: two files whose three copies share one FRC group —
    with 2 worker groups each file is one 3-slot cell plus nothing else."""
    return FRCAssignment(num_workers=6, replication=3).assignment


def one_round(assignment, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    honest = rng.standard_normal((assignment.num_files, dim))
    return VoteTensor.from_honest(assignment, honest), honest


def collect(tensor, arrivals, **runtime_kwargs):
    runtime = AsyncRuntime(**runtime_kwargs)
    return EventDrivenRound(runtime).collect(tensor, np.asarray(arrivals, dtype=np.float64))


class TestGroupQuorumCells:
    def test_cell_closes_at_group_quorum_and_rejects_late(self, frc_6):
        # FRC(6, 3): file 0 -> workers {0,1,2} (group 0 of a 2-group split),
        # file 1 -> workers {3,4,5} (group 1).  Quorum 2 closes each file's
        # single non-empty cell at its 2nd copy; the 3rd is group-level late.
        tensor, _ = one_round(frc_6)
        arrivals = [[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]]
        out = collect(tensor, arrivals, groups=2, quorum=2)
        assert out.accepted.sum() == 4
        assert len(out.late_events) == 2
        assert all(e.kind == LATE_KIND for e in out.late_events)
        assert out.group_close_times.shape == (2, 2)
        # file 0 lives entirely in group 0, file 1 entirely in group 1
        assert out.group_close_times[0, 0] == pytest.approx(0.2)
        assert np.isinf(out.group_close_times[0, 1])  # empty cell never closes
        assert out.group_close_times[1, 1] == pytest.approx(0.2)
        assert np.isinf(out.group_close_times[1, 0])

    def test_quorum_clamps_to_local_slot_count(self, frc_6):
        # With 6 groups every cell holds one slot: quorum 3 clamps to 1 per
        # cell, so a file closes only when all of its groups delivered —
        # and nothing is ever late.
        tensor, _ = one_round(frc_6)
        out = collect(tensor, [[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]], groups=6, quorum=3)
        assert out.accepted.all()
        assert not out.late_events
        assert out.file_close_times[0] == pytest.approx(0.3)

    def test_other_groups_stay_open_after_one_cell_closes(self):
        # 5 workers, r=5 (one file), split 3|2.  Quorum 1: each cell closes
        # on its first copy.  Copies 2 and 3 of group 0 are late even though
        # group 1 has not closed yet; group 1's second copy is late too.
        assignment = FRCAssignment(num_workers=5, replication=5).assignment
        tensor, _ = one_round(assignment)
        out = collect(tensor, [[0.1, 0.2, 0.3, 0.9, 1.0]], groups=2, quorum=1)
        assert [e.slot for e in out.late_events] == [1, 2, 4]
        assert out.accepted.tolist() == [[True, False, False, True, False]]
        assert out.group_close_times[0].tolist() == [0.1, 0.9]
        assert out.file_close_times[0] == pytest.approx(0.9)

    def test_late_slots_keep_their_payload(self, frc_6):
        tensor, honest = one_round(frc_6)
        out = collect(tensor, [[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]], groups=2, quorum=2)
        assert [(e.file, e.slot) for e in out.late_events] == [(0, 2), (1, 2)]
        # the late copy is not accepted, so it abstains; nothing is written
        assert not out.accepted[0, 2] and stored_rows(tensor) == 0
        assert np.array_equal(tensor.read_slots(np.array([0]), np.array([2]))[0],
                              honest[0])

    def test_per_file_round_has_no_group_close_times(self, frc_6):
        tensor, _ = one_round(frc_6)
        out = collect(tensor, [[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]], quorum=2)
        assert out.group_close_times is None

    def test_no_quorum_waits_for_every_copy(self, frc_6):
        tensor, _ = one_round(frc_6)
        out = collect(tensor, [[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]], groups=2)
        assert out.accepted.all()
        assert not out.late_events

    def test_groups_split_the_workers_contiguously_and_balanced(self):
        # 7 workers in 3 groups: {0,1,2} | {3,4} | {5,6}.  One file held by
        # all seven; quorum 1 accepts each group's first copy only.
        assignment = FRCAssignment(num_workers=7, replication=7).assignment
        tensor, _ = one_round(assignment)
        out = collect(tensor, [[0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1]], groups=3, quorum=1)
        assert out.accepted.tolist() == [[False, False, True, False, True, False, True]]
        assert out.group_close_times[0].tolist() == [0.5, 0.3, 0.1]

    def test_rejects_a_non_positive_group_count(self):
        with pytest.raises(ConfigurationError, match="groups"):
            AsyncRuntime(groups=0)


class TestTopologySpec:
    """A topology only sets the event engine's cells; a spec where it would
    do nothing is refused by name."""

    def test_sync_spec_with_topology_is_refused(self):
        data = get_scenario("ramanujan-alie-omniscient").to_dict()
        data["topology"] = {"groups": 5}
        with pytest.raises(ConfigurationError, match=r"^scenario\.topology requires an event"):
            ScenarioRunner(ScenarioSpec.from_dict(data)).check()

    def test_vanilla_event_spec_with_topology_is_refused(self):
        data = get_scenario("vanilla-async-deadline-partial").to_dict()
        data["topology"] = {"groups": 2}
        with pytest.raises(ConfigurationError, match=r"^scenario\.topology requires a voting"):
            ScenarioRunner(ScenarioSpec.from_dict(data)).check()

    @pytest.mark.parametrize("key", ["q_group", "q_root"])
    def test_per_level_budgets_are_unknown_keys(self, key):
        data = get_scenario("ramanujan-hier-async-group-quorum").to_dict()
        data["topology"][key] = 1
        with pytest.raises(ConfigurationError, match=rf"unknown key\(s\) \['scenario\.topology\.{key}'\]"):
            ScenarioSpec.from_dict(data)

    def test_more_groups_than_workers_is_refused_at_build(self):
        data = get_scenario("ramanujan-hier-async-group-quorum").to_dict()
        data["topology"] = {"groups": 26}  # K = 25
        with pytest.raises(ReproError, match="groups 26 exceed the assignment's K=25"):
            run_scenario(ScenarioSpec.from_dict(data))


class TestGroupQuorumScenario:
    def test_group_quorum_scenario_records_group_lates(self):
        result = run_scenario(get_scenario("ramanujan-hier-async-group-quorum"))
        lates = [
            f for r in result.trace.rounds for f in r.faults
            if f.get("kind") == LATE_KIND
        ]
        assert lates  # group-level rejections actually happen
        # Without groups the same quorum 2 < r' = 3 could decide no file, so
        # it is refused.  Group cells reject far fewer copies than even the
        # smallest per-file quorum that can decide, r' (only cells holding
        # more than `quorum` slots ever reject).
        data = get_scenario("ramanujan-hier-async-group-quorum").to_dict()
        data.pop("topology")
        data["name"] += "-flat"
        with pytest.raises(ReproError, match=r"quorum 2 is below the r'=3"):
            run_scenario(ScenarioSpec.from_dict(data))
        data["runtime"]["quorum"] = 3
        flat = run_scenario(ScenarioSpec.from_dict(data))
        flat_lates = [
            f for r in flat.trace.rounds for f in r.faults
            if f.get("kind") == LATE_KIND
        ]
        assert len(lates) < len(flat_lates)
        assert flat.trace.final_params_digest != result.trace.final_params_digest
