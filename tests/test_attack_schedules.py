"""Adversary schedules: static, ramping and rotating selection over time."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.schedules import ScheduledSelector
from repro.exceptions import AttackError, ConfigurationError
from repro.scenarios import ScenarioRunner, ScenarioSpec, get_scenario
from repro.scenarios.spec import ScheduleSpec


def with_attack(**attack):
    """``mols-alie-omniscient`` with keys of its attack section replaced."""
    data = get_scenario("mols-alie-omniscient").to_dict()
    data["attack"].update(attack)
    return ScenarioSpec.from_dict(data)


class TestScheduleSpec:
    def test_static_is_constant(self):
        schedule = ScheduleSpec(kind="static", q=3)
        assert [schedule.q_at(t) for t in range(5)] == [3, 3, 3, 3, 3]
        assert schedule.max_q == 3

    def test_ramping_up(self):
        schedule = ScheduleSpec(kind="ramping", q=0, q_end=4, period=2)
        assert [schedule.q_at(t) for t in range(10)] == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
        assert schedule.max_q == 4

    def test_ramping_down(self):
        schedule = ScheduleSpec(kind="ramping", q=3, q_end=1, period=1)
        assert [schedule.q_at(t) for t in range(5)] == [3, 2, 1, 1, 1]
        assert schedule.max_q == 3

    def test_ramping_requires_q_end(self):
        """Two fields together: a row of ``check()``, not the section's own check."""
        spec = with_attack(schedule={"kind": "ramping", "q": 2})
        with pytest.raises(
            ConfigurationError, match=r"^scenario\.attack\.schedule: ramping schedule requires q_end$"
        ):
            ScenarioRunner(spec).check()

    def test_rotating_window_offset(self):
        schedule = ScheduleSpec(kind="rotating", q=3, period=2, stride=4)
        assert [schedule.window_offset(t) for t in range(6)] == [0, 0, 4, 4, 8, 8]

    @pytest.mark.parametrize(
        "schedule, message",
        [
            ({"kind": "chaotic", "q": 1}, "unknown schedule kind 'chaotic'"),
            ({"q": -1}, "q must be non-negative, got -1"),
            ({"kind": "ramping", "q": 1, "q_end": -2}, "q_end must be non-negative, got -2"),
            ({"q": 1, "period": 0}, "period must be >= 1, got 0"),
            ({"kind": "rotating", "q": 1, "stride": 0}, "stride must be >= 1, got 0"),
        ],
        ids=["kind", "q", "q_end", "period", "stride"],
    )
    def test_rejects_a_bad_value_at_load(self, schedule, message):
        with pytest.raises(ConfigurationError) as excinfo:
            with_attack(schedule=schedule)
        assert str(excinfo.value).startswith(f"scenario.attack.schedule: {message}")

    def test_rejects_negative_iteration(self):
        with pytest.raises(AttackError, match="non-negative"):
            ScheduleSpec(kind="static", q=1).q_at(-1)


class TestScheduledSelector:
    def test_rotating_selection_wraps_modulo_K(self, mols_assignment):
        schedule = ScheduleSpec(kind="rotating", q=3, period=1, stride=7)
        selector = ScheduledSelector(schedule, selection="rotating")
        rng = np.random.default_rng(0)
        assert mols_assignment.num_workers == 15
        assert selector.select(mols_assignment, 0, rng) == (0, 1, 2)
        assert selector.select(mols_assignment, 1, rng) == (7, 8, 9)
        # offset 14: window {14, 15 % 15, 16 % 15} wraps around.
        assert selector.select(mols_assignment, 2, rng) == (0, 1, 14)

    def test_zero_budget_rounds_select_nobody(self, mols_assignment):
        schedule = ScheduleSpec(kind="ramping", q=0, q_end=2, period=2)
        selector = ScheduledSelector(schedule, selection="random")
        rng = np.random.default_rng(0)
        assert selector.select(mols_assignment, 0, rng) == ()
        assert len(selector.select(mols_assignment, 2, rng)) == 1

    def test_random_selection_is_deterministic_per_rng(self, mols_assignment):
        schedule = ScheduleSpec(kind="static", q=4)
        selector = ScheduledSelector(schedule, selection="random")
        one = selector.select(mols_assignment, 0, np.random.default_rng(5))
        two = selector.select(mols_assignment, 0, np.random.default_rng(5))
        assert one == two
        assert len(one) == 4

    def test_omniscient_caches_per_budget(self, mols_assignment):
        schedule = ScheduleSpec(kind="ramping", q=1, q_end=2, period=1)
        selector = ScheduledSelector(schedule, selection="omniscient")
        rng = np.random.default_rng(0)
        first = selector.select(mols_assignment, 0, rng)
        second = selector.select(mols_assignment, 1, rng)
        assert len(first) == 1 and len(second) == 2
        # Same budgets later return identical (cached) sets.
        assert selector.select(mols_assignment, 2, rng) == second

    def test_rotating_selection_requires_rotating_schedule(self):
        with pytest.raises(ConfigurationError, match=r"^scenario\.attack: a rotating"):
            ScenarioRunner(with_attack(selection="rotating", schedule={"q": 2})).check()

    def test_rotating_schedule_rejects_other_selections(self):
        """A rotating schedule defines the compromised set itself; pairing it
        with omniscient/random selection must fail loudly, not silently win."""
        schedule = {"kind": "rotating", "q": 2}
        for selection in ("omniscient", "random"):
            spec = with_attack(selection=selection, schedule=schedule)
            with pytest.raises(ConfigurationError, match="selection='rotating'"):
                ScenarioRunner(spec).check()
