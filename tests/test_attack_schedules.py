"""Adversary schedules: static, ramping and rotating selection over time."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.schedules import AdversarySchedule, ScheduledSelector
from repro.exceptions import AttackError, ConfigurationError


class TestAdversarySchedule:
    def test_static_is_constant(self):
        schedule = AdversarySchedule(kind="static", q=3)
        assert [schedule.q_at(t) for t in range(5)] == [3, 3, 3, 3, 3]
        assert schedule.max_q == 3

    def test_ramping_up(self):
        schedule = AdversarySchedule(kind="ramping", q=0, q_end=4, period=2)
        assert [schedule.q_at(t) for t in range(10)] == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
        assert schedule.max_q == 4

    def test_ramping_down(self):
        schedule = AdversarySchedule(kind="ramping", q=3, q_end=1, period=1)
        assert [schedule.q_at(t) for t in range(5)] == [3, 2, 1, 1, 1]
        assert schedule.max_q == 3

    def test_ramping_requires_q_end(self):
        with pytest.raises(ConfigurationError, match="q_end"):
            AdversarySchedule(kind="ramping", q=2)

    def test_rotating_window_offset(self):
        schedule = AdversarySchedule(kind="rotating", q=3, period=2, stride=4)
        assert [schedule.window_offset(t) for t in range(6)] == [0, 0, 4, 4, 8, 8]

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="schedule kind"):
            AdversarySchedule(kind="chaotic", q=1)

    def test_rejects_negative_iteration(self):
        with pytest.raises(AttackError, match="non-negative"):
            AdversarySchedule(kind="static", q=1).q_at(-1)


class TestScheduledSelector:
    def test_rotating_selection_wraps_modulo_K(self, mols_assignment):
        schedule = AdversarySchedule(kind="rotating", q=3, period=1, stride=7)
        selector = ScheduledSelector(schedule, selection="rotating")
        rng = np.random.default_rng(0)
        assert mols_assignment.num_workers == 15
        assert selector.select(mols_assignment, 0, rng) == (0, 1, 2)
        assert selector.select(mols_assignment, 1, rng) == (7, 8, 9)
        # offset 14: window {14, 15 % 15, 16 % 15} wraps around.
        assert selector.select(mols_assignment, 2, rng) == (0, 1, 14)

    def test_zero_budget_rounds_select_nobody(self, mols_assignment):
        schedule = AdversarySchedule(kind="ramping", q=0, q_end=2, period=2)
        selector = ScheduledSelector(schedule, selection="random")
        rng = np.random.default_rng(0)
        assert selector.select(mols_assignment, 0, rng) == ()
        assert len(selector.select(mols_assignment, 2, rng)) == 1

    def test_random_selection_is_deterministic_per_rng(self, mols_assignment):
        schedule = AdversarySchedule(kind="static", q=4)
        selector = ScheduledSelector(schedule, selection="random")
        one = selector.select(mols_assignment, 0, np.random.default_rng(5))
        two = selector.select(mols_assignment, 0, np.random.default_rng(5))
        assert one == two
        assert len(one) == 4

    def test_omniscient_caches_per_budget(self, mols_assignment):
        schedule = AdversarySchedule(kind="ramping", q=1, q_end=2, period=1)
        selector = ScheduledSelector(schedule, selection="omniscient")
        rng = np.random.default_rng(0)
        first = selector.select(mols_assignment, 0, rng)
        second = selector.select(mols_assignment, 1, rng)
        assert len(first) == 1 and len(second) == 2
        # Same budgets later return identical (cached) sets.
        assert selector.select(mols_assignment, 2, rng) == second

    def test_budget_above_K_raises(self, baseline_10):
        schedule = AdversarySchedule(kind="static", q=99)
        selector = ScheduledSelector(schedule, selection="random")
        with pytest.raises(AttackError, match="q=99"):
            selector.select(baseline_10.assignment, 0, np.random.default_rng(0))

    def test_rotating_selection_requires_rotating_schedule(self):
        with pytest.raises(ConfigurationError, match="rotating"):
            ScheduledSelector(AdversarySchedule(kind="static", q=2), selection="rotating")

    def test_rotating_schedule_rejects_other_selections(self):
        """A rotating schedule defines the compromised set itself; pairing it
        with omniscient/random selection must fail loudly, not silently win."""
        schedule = AdversarySchedule(kind="rotating", q=2)
        with pytest.raises(ConfigurationError, match="selection='rotating'"):
            ScheduledSelector(schedule, selection="omniscient")
        with pytest.raises(ConfigurationError, match="selection='rotating'"):
            ScheduledSelector(schedule, selection="random")
