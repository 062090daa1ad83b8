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
    round_duration,
)
from repro.core.vote_tensor import VoteTensor
from repro.exceptions import ConfigurationError

from cow_helpers import cube_of


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
        assert round_duration(events) == max(e.delay for e in events)

    def test_timeout_drops_votes_and_clamps_delay(self, tensor, mols_assignment):
        injector = StragglerInjector(
            count=5, delay_model="fixed", delay=2.0, timeout=1.0
        )
        events = injector.inject(tensor, make_context(mols_assignment))
        assert all(e.dropped and e.delay == 1.0 for e in events)
        for event in events:
            mask = tensor.workers == event.worker
            assert np.all(cube_of(tensor)[mask] == 0.0)
        # Untouched workers keep their honest votes.
        untouched = ~np.isin(tensor.workers, [e.worker for e in events])
        assert np.all(cube_of(tensor)[untouched] != 0.0)

    def test_timeout_boundary_is_exclusive(self, tensor, mols_assignment):
        """A delay exactly equal to the timeout is abandoned (delay >= timeout)."""
        injector = StragglerInjector(
            count=3, delay_model="fixed", delay=1.0, timeout=1.0
        )
        events = injector.inject(tensor, make_context(mols_assignment))
        assert all(e.dropped and e.delay == 1.0 for e in events)
        for event in events:
            assert np.all(cube_of(tensor)[tensor.workers == event.worker] == 0.0)

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
        injector = DropoutInjector(probability=1.0)
        events = injector.inject(tensor, make_context(mols_assignment))
        assert len(events) == mols_assignment.num_workers
        assert np.all(cube_of(tensor) == 0.0)

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
        assert np.all(cube_of(t1) == 0.0)
        # Round 2: everyone has rejoined.
        t2 = VoteTensor.from_honest(mols_assignment, honest)
        events2 = injector.inject(t2, make_context(mols_assignment, iteration=2))
        assert events2 == []
        assert np.all(cube_of(t2) == 1.0)

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
            assert np.all(cube_of(t) == 0.0)
        t = VoteTensor.from_honest(mols_assignment, honest)
        events = injector.inject(
            t, make_context(mols_assignment, iteration=down_for)
        )
        assert events == []
        assert np.all(cube_of(t) == 1.0)

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
        assert np.all(cube_of(t2) == 1.0)

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
    def test_zero_mode(self, tensor, mols_assignment):
        injector = MessageCorruptionInjector(probability=1.0, mode="zero")
        events = injector.inject(tensor, make_context(mols_assignment))
        assert np.all(cube_of(tensor) == 0.0)
        assert len(events) == tensor.num_files * tensor.replication

    def test_scale_mode(self, tensor, mols_assignment):
        before = cube_of(tensor)
        injector = MessageCorruptionInjector(probability=1.0, mode="scale", factor=10.0)
        injector.inject(tensor, make_context(mols_assignment))
        np.testing.assert_allclose(cube_of(tensor), before * 10.0)

    def test_noise_mode_changes_only_hit_messages(self, tensor, mols_assignment):
        before = cube_of(tensor)
        injector = MessageCorruptionInjector(probability=0.2, mode="noise", factor=1.0)
        events = injector.inject(tensor, make_context(mols_assignment))
        changed = {(e.file, int(np.searchsorted(tensor.workers[e.file], e.worker))) for e in events}
        for i in range(tensor.num_files):
            for k in range(tensor.replication):
                same = np.array_equal(cube_of(tensor)[i, k], before[i, k])
                assert same != ((i, k) in changed)

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


class TestRoundDuration:
    def test_legacy_sync_clock_is_base_plus_max_delay(self):
        events = [
            FaultEvent(kind="straggler", worker=0, delay=0.3),
            FaultEvent(kind="straggler", worker=1, delay=0.7, dropped=True),
        ]
        assert round_duration(events) == 0.7
        assert round_duration(events, base=0.5) == 1.2

    def test_no_events_is_just_the_base(self):
        assert round_duration([]) == 0.0
        assert round_duration([], base=0.25) == 0.25
