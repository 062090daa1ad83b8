"""Fault injectors: stragglers, dropout/churn, message corruption."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.faults import (
    DropoutInjector,
    FaultContext,
    FaultEvent,
    MessageCorruptionInjector,
    StragglerInjector,
    arrival_delays,
)
from repro.core.vote_tensor import VoteTensor
from repro.exceptions import ConfigurationError

from cow_helpers import cube_of, stored_rows


@pytest.fixture
def tensor(mols_assignment):
    honest = np.arange(mols_assignment.num_files, dtype=np.float64)[:, None] + np.ones(4)
    return VoteTensor.from_honest(mols_assignment, honest)


def make_context(assignment, seed=0, iteration=0):
    return FaultContext(
        assignment=assignment, iteration=iteration, rng=np.random.default_rng(seed)
    )


class TestStragglers:
    def test_no_timeout_only_delays(self, tensor, mols_assignment):
        before = cube_of(tensor)
        injector = StragglerInjector(count=3, delay_model="exponential", delay=0.5)
        events = injector.inject(tensor, make_context(mols_assignment))
        assert len(events) == 3
        assert all(e.delay > 0 and not e.dropped for e in events)
        np.testing.assert_array_equal(cube_of(tensor), before)

    def test_timeout_drops_votes_and_clamps_delay(self, tensor, mols_assignment):
        """An abandoned straggler never delivers: an ``inf`` arrival delay,
        and the tensor is not written (its copies abstain from the vote)."""
        before = cube_of(tensor)
        injector = StragglerInjector(
            count=5, delay_model="fixed", delay=2.0, timeout=1.0
        )
        events = injector.inject(tensor, make_context(mols_assignment))
        assert len(events) == 5
        assert all(e.dropped and e.delay == 1.0 for e in events)
        delays = arrival_delays(events, mols_assignment.num_workers)
        dropped = [e.worker for e in events]
        assert np.isinf(delays[dropped]).all() and np.isinf(delays).sum() == 5
        np.testing.assert_array_equal(cube_of(tensor), before)
        assert stored_rows(tensor) == 0

    def test_timeout_boundary_is_exclusive(self, tensor, mols_assignment):
        """A delay exactly equal to the timeout is abandoned (delay >= timeout)."""
        injector = StragglerInjector(
            count=3, delay_model="fixed", delay=1.0, timeout=1.0
        )
        events = injector.inject(tensor, make_context(mols_assignment))
        assert len(events) == 3
        assert all(e.dropped and e.delay == 1.0 for e in events)
        assert np.isinf(arrival_delays(events, mols_assignment.num_workers)).sum() == 3
        assert stored_rows(tensor) == 0

    def test_delay_just_under_timeout_survives(self, tensor, mols_assignment):
        before = cube_of(tensor)
        injector = StragglerInjector(
            count=3, delay_model="fixed", delay=1.0, timeout=1.0 + 1e-9
        )
        events = injector.inject(tensor, make_context(mols_assignment))
        assert all(not e.dropped and e.delay == 1.0 for e in events)
        np.testing.assert_array_equal(cube_of(tensor), before)

    def test_count_clamped_to_cluster_size(self, tensor, mols_assignment):
        injector = StragglerInjector(count=99, delay_model="fixed", delay=0.5)
        events = injector.inject(tensor, make_context(mols_assignment))
        assert len(events) == mols_assignment.num_workers

    def test_deterministic_per_rng(self, tensor, mols_assignment):
        injector = StragglerInjector(count=3, delay_model="exponential", delay=0.5)
        one = injector.inject(tensor, make_context(mols_assignment, seed=9))
        two = injector.inject(tensor, make_context(mols_assignment, seed=9))
        assert one == two

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StragglerInjector(count=-1)
        with pytest.raises(ConfigurationError):
            StragglerInjector(count=1, delay_model="psychic")
        with pytest.raises(ConfigurationError):
            StragglerInjector(count=1, delay=0.0)
        with pytest.raises(ConfigurationError):
            StragglerInjector(count=1, timeout=-2.0)


class TestDropout:
    def test_downed_worker_loses_all_votes(self, tensor, mols_assignment):
        """A downed worker delivers nothing (``inf`` delay); nothing is written."""
        injector = DropoutInjector(probability=1.0)
        events = injector.inject(tensor, make_context(mols_assignment))
        assert len(events) == mols_assignment.num_workers
        assert all(e.dropped for e in events)
        assert np.isinf(arrival_delays(events, mols_assignment.num_workers)).all()
        assert stored_rows(tensor) == 0

    def test_churn_keeps_worker_down_for_down_for_rounds(self, mols_assignment):
        injector = DropoutInjector(probability=1.0, down_for=2)
        honest = np.ones((mols_assignment.num_files, 2))
        t0 = VoteTensor.from_honest(mols_assignment, honest)
        injector.inject(t0, make_context(mols_assignment, iteration=0))
        # Round 1: probability no longer matters — everyone is already down.
        injector.probability = 0.0
        t1 = VoteTensor.from_honest(mols_assignment, honest)
        events1 = injector.inject(t1, make_context(mols_assignment, iteration=1))
        assert len(events1) == mols_assignment.num_workers
        assert all(e.dropped for e in events1) and stored_rows(t1) == 0
        # Round 2: everyone has rejoined.
        t2 = VoteTensor.from_honest(mols_assignment, honest)
        events2 = injector.inject(t2, make_context(mols_assignment, iteration=2))
        assert events2 == []
        assert stored_rows(t2) == 0

    @pytest.mark.parametrize("down_for", [1, 2, 3])
    def test_rejoin_after_exactly_down_for_rounds(self, mols_assignment, down_for):
        injector = DropoutInjector(probability=1.0, down_for=down_for)
        honest = np.ones((mols_assignment.num_files, 2))
        t0 = VoteTensor.from_honest(mols_assignment, honest)
        events = injector.inject(t0, make_context(mols_assignment, iteration=0))
        assert len(events) == mols_assignment.num_workers
        injector.probability = 0.0
        for iteration in range(1, down_for):
            t = VoteTensor.from_honest(mols_assignment, honest)
            events = injector.inject(
                t, make_context(mols_assignment, iteration=iteration)
            )
            assert len(events) == mols_assignment.num_workers
            assert all(e.dropped for e in events) and stored_rows(t) == 0
        t = VoteTensor.from_honest(mols_assignment, honest)
        events = injector.inject(
            t, make_context(mols_assignment, iteration=down_for)
        )
        assert events == []
        assert stored_rows(t) == 0

    def test_crash_draw_while_down_does_not_rearm_timer(self, mols_assignment):
        """A worker that would re-crash while already down rejoins on schedule."""
        injector = DropoutInjector(probability=1.0, down_for=2)
        honest = np.ones((mols_assignment.num_files, 2))
        t0 = VoteTensor.from_honest(mols_assignment, honest)
        injector.inject(t0, make_context(mols_assignment, iteration=0))
        # Round 1: probability is still 1.0, so every downed worker draws a
        # would-be crash — which must not restart its down timer.
        t1 = VoteTensor.from_honest(mols_assignment, honest)
        events1 = injector.inject(t1, make_context(mols_assignment, iteration=1))
        assert len(events1) == mols_assignment.num_workers
        injector.probability = 0.0
        t2 = VoteTensor.from_honest(mols_assignment, honest)
        events2 = injector.inject(t2, make_context(mols_assignment, iteration=2))
        assert events2 == []
        assert stored_rows(t2) == 0

    def test_rng_consumption_independent_of_history(self, mols_assignment):
        """The draw sequence depends only on (seed, K), not on who is down."""
        honest = np.ones((mols_assignment.num_files, 2))
        a = DropoutInjector(probability=0.3)
        b = DropoutInjector(probability=0.3, down_for=3)
        for iteration in range(4):
            ta = VoteTensor.from_honest(mols_assignment, honest)
            tb = VoteTensor.from_honest(mols_assignment, honest)
            ea = a.inject(ta, make_context(mols_assignment, seed=iteration))
            eb = b.inject(tb, make_context(mols_assignment, seed=iteration))
            # Identical per-round draws: every worker a crashes also goes (or
            # already is) down for b, despite b's different churn history.
            assert {e.worker for e in ea} <= {e.worker for e in eb}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DropoutInjector(probability=1.5)
        with pytest.raises(ConfigurationError):
            DropoutInjector(probability=0.5, down_for=0)


class TestCorruption:
    def test_zero_probability_is_a_noop(self, tensor, mols_assignment):
        before = cube_of(tensor)
        injector = MessageCorruptionInjector(probability=0.0)
        assert injector.inject(tensor, make_context(mols_assignment)) == []
        np.testing.assert_array_equal(cube_of(tensor), before)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MessageCorruptionInjector(probability=-0.1)
        with pytest.raises(ConfigurationError):
            MessageCorruptionInjector(probability=0.5, mode="garble")
        with pytest.raises(ConfigurationError):
            MessageCorruptionInjector(probability=0.5, factor=float("inf"))


class TestRngConsumptionInvariance:
    """Injector draws are a pure function of (seed, round, tensor shape).

    Neither the tensor's contents nor its copy-on-write override layout may
    influence how much randomness an injector consumes, or which cells it
    targets — otherwise an attack edit (or an earlier injector) would silently
    change a later injector's realized faults.
    """

    FACTORIES = {
        "stragglers": lambda: StragglerInjector(
            count=4, delay_model="exponential", delay=0.5, timeout=0.6
        ),
        "dropout": lambda: DropoutInjector(probability=0.4, down_for=2),
        "corruption": lambda: MessageCorruptionInjector(
            probability=0.3, mode="noise", factor=2.0
        ),
    }

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_draws_independent_of_cow_override_layout(self, mols_assignment, name):
        honest = np.ones((mols_assignment.num_files, 4))
        clean = VoteTensor.from_honest(mols_assignment, honest)
        messy = VoteTensor.from_honest(mols_assignment, honest)
        # Give messy a very different override layout: payload writes on two
        # workers' slots plus a band of zeroed slots.
        files, slots = np.nonzero(np.isin(messy.workers, (1, 8)))
        messy.write_slots(files, slots, np.full(4, 7.0))
        messy.zero_slots(np.arange(5), np.zeros(5, dtype=np.int64))
        rng_a, rng_b = np.random.default_rng(42), np.random.default_rng(42)
        factory = self.FACTORIES[name]
        events_a = factory().inject(
            clean,
            FaultContext(assignment=mols_assignment, iteration=0, rng=rng_a),
        )
        events_b = factory().inject(
            messy,
            FaultContext(assignment=mols_assignment, iteration=0, rng=rng_b),
        )
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert [(e.kind, e.worker, e.file, e.dropped) for e in events_a] == [
            (e.kind, e.worker, e.file, e.dropped) for e in events_b
        ]

    def test_dropout_draws_independent_of_churn_history(self, mols_assignment):
        """Same per-round rng state consumed whatever the realized downtime."""
        honest = np.ones((mols_assignment.num_files, 2))
        short = DropoutInjector(probability=0.5, down_for=1)
        long = DropoutInjector(probability=0.5, down_for=3)
        for iteration in range(5):
            rng_a = np.random.default_rng(iteration)
            rng_b = np.random.default_rng(iteration)
            short.inject(
                VoteTensor.from_honest(mols_assignment, honest),
                FaultContext(
                    assignment=mols_assignment, iteration=iteration, rng=rng_a
                ),
            )
            long.inject(
                VoteTensor.from_honest(mols_assignment, honest),
                FaultContext(
                    assignment=mols_assignment, iteration=iteration, rng=rng_b
                ),
            )
            assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestArrivalDelays:
    def test_events_become_per_worker_delays(self):
        events = [
            FaultEvent(kind="straggler", worker=0, delay=0.3),
            FaultEvent(kind="straggler", worker=0, delay=0.25),  # a second injector
            FaultEvent(kind="straggler", worker=4, delay=0.25),
            FaultEvent(kind="straggler", worker=4, delay=0.3),
            FaultEvent(kind="straggler", worker=1, delay=0.7, dropped=True),
            FaultEvent(kind="dropout", worker=2, dropped=True),
            FaultEvent(kind="straggler", worker=2, delay=0.1),
            FaultEvent(kind="corruption", worker=3, file=4),
        ]
        delays = arrival_delays(events, num_workers=5)
        # Two entries on one worker: the larger delay, never the sum.
        assert delays.tolist() == [0.3, np.inf, np.inf, 0.0, 0.3]

    def test_no_events_no_delays(self):
        np.testing.assert_array_equal(arrival_delays([], num_workers=3), np.zeros(3))
