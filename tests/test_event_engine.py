"""Event-driven round engine: arrival schedules, deadline/quorum, equivalence."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.aggregation.majority import _reference_exact_majority, majority_vote_votetensor
from repro.aggregation.median import CoordinateWiseMedian
from repro.assignment.frc import FRCAssignment
from repro.attacks.constant import ConstantAttack
from repro.cluster.events import (
    LATE_KIND,
    AsyncRuntime,
    EventDrivenRound,
    base_arrival_times,
    perturbed_arrival_times,
)
from repro.cluster.faults import (
    DropoutInjector,
    MessageCorruptionInjector,
    StragglerInjector,
    round_duration,
)
from repro.cluster.simulator import TrainingCluster
from repro.cluster.timing import CostModel
from repro.cluster.worker import WorkerPool
from repro.core.pipelines import ByzShieldPipeline, VanillaPipeline
from repro.core.vote_tensor import VoteTensor
from repro.exceptions import AggregationError, ConfigurationError, TrainingError
from repro.scenarios.catalog import get_scenario
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import RuntimeSpec

from cow_helpers import FixedSelector, cube_of, tensor_of
from test_cluster import DIM, make_file_data, quadratic_gradient_fn

COST = CostModel()


@pytest.fixture(scope="module")
def frc_3():
    """Smallest non-trivial event-loop substrate: one file, three slots."""
    return FRCAssignment(num_workers=3, replication=3).assignment


def one_file_tensor(assignment, dim=4):
    """A (1, 3, dim) tensor whose slot k holds the constant vector k + 1."""
    tensor = VoteTensor.from_honest(assignment, np.ones((1, dim)))
    for k in range(3):
        tensor.write_slots(
            np.array([0]), np.array([k]), np.full(dim, float(k + 1))
        )
    return tensor


def collect(tensor, arrivals, **runtime_kwargs):
    runtime = AsyncRuntime(**runtime_kwargs)
    return EventDrivenRound(runtime).collect(
        tensor, np.asarray(arrivals, dtype=np.float64)
    )


# --------------------------------------------------------------------------- #
# AsyncRuntime validation
# --------------------------------------------------------------------------- #
class TestAsyncRuntime:
    def test_defaults_are_sync_equivalent(self):
        runtime = AsyncRuntime()
        assert runtime.deadline == float("inf")
        assert runtime.quorum is None
        assert not runtime.partial

    @pytest.mark.parametrize("deadline", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_deadline(self, deadline):
        with pytest.raises(ConfigurationError):
            AsyncRuntime(deadline=deadline)

    def test_rejects_quorum_below_one(self):
        with pytest.raises(ConfigurationError):
            AsyncRuntime(quorum=0)

    def test_quorum_above_replication_rejected_by_engine(self, frc_3):
        tensor = one_file_tensor(frc_3)
        with pytest.raises(ConfigurationError):
            collect(tensor, [[0.1, 0.2, 0.3]], quorum=4)


# --------------------------------------------------------------------------- #
# Arrival schedules
# --------------------------------------------------------------------------- #
class TestBaseArrivalTimes:
    def test_single_file_workers(self, baseline_10):
        """r=1, one file per worker: compute + one message cost, exactly."""
        assignment = baseline_10.assignment
        samples = np.arange(1, assignment.num_files + 1, dtype=np.float64)
        dim = 50
        arrivals = base_arrival_times(assignment, COST, dim, samples)
        assert arrivals.shape == (assignment.num_files, 1)
        per_message = dim * COST.network_per_float + COST.network_latency_per_message
        for w in range(assignment.num_workers):
            (i,) = baseline_10.assignment.files_of_worker(w)
            expected = (
                samples[i] * dim * COST.compute_per_sample_per_param + per_message
            )
            assert arrivals[i, 0] == pytest.approx(expected)

    def test_serialized_uplink_orders_a_workers_messages(self, mols_assignment):
        """Worker w's rank-th file arrives (rank+1) message-costs after compute."""
        dim = 10
        samples = np.full(mols_assignment.num_files, 3.0)
        arrivals = base_arrival_times(mols_assignment, COST, dim, samples)
        workers = mols_assignment.worker_slot_matrix()
        per_message = dim * COST.network_per_float + COST.network_latency_per_message
        w = 0
        files = mols_assignment.files_of_worker(w)
        compute = samples[list(files)].sum() * dim * COST.compute_per_sample_per_param
        for rank, i in enumerate(files):
            k = int(np.searchsorted(workers[i], w))
            assert arrivals[i, k] == pytest.approx(compute + (rank + 1) * per_message)

    def test_rejects_wrong_samples_shape(self, mols_assignment):
        with pytest.raises(ConfigurationError):
            base_arrival_times(
                mols_assignment, COST, 10, np.ones(mols_assignment.num_files - 1)
            )


class TestPerturbedArrivalTimes:
    def test_delay_shift_and_crash(self, mols_assignment):
        base = base_arrival_times(
            mols_assignment, COST, 10, np.full(mols_assignment.num_files, 2.0)
        )
        workers = mols_assignment.worker_slot_matrix()
        perturbed = perturbed_arrival_times(base, workers, {3: 0.5}, {7})
        np.testing.assert_allclose(
            perturbed[workers == 3], base[workers == 3] + 0.5
        )
        assert np.all(np.isinf(perturbed[workers == 7]))
        untouched = ~np.isin(workers, (3, 7))
        np.testing.assert_array_equal(perturbed[untouched], base[untouched])
        # The base schedule is never mutated.
        assert np.all(np.isfinite(base))


# --------------------------------------------------------------------------- #
# The PS-side event loop
# --------------------------------------------------------------------------- #
class TestEventLoop:
    def test_inf_deadline_accepts_everything(self, frc_3):
        tensor = one_file_tensor(frc_3)
        before = cube_of(tensor)
        outcome = collect(tensor, [[0.1, 0.5, 0.3]])
        assert outcome.accepted.all()
        assert outcome.late_events == ()
        assert not outcome.deadline_fired
        # Implicit quorum r: the file closes at its last arrival.
        assert outcome.round_time == 0.5
        assert outcome.file_close_times[0] == 0.5
        np.testing.assert_array_equal(cube_of(tensor), before)

    def test_deadline_is_exclusive(self, frc_3):
        """An arrival at exactly the deadline is late (straggler convention)."""
        tensor = one_file_tensor(frc_3)
        outcome = collect(tensor, [[0.1, 0.5, 1.0]], deadline=0.5)
        np.testing.assert_array_equal(outcome.accepted, [[True, False, False]])
        assert [e.slot for e in outcome.late_events] == [1, 2]
        assert outcome.deadline_fired
        # File never closed, so the deadline is the round clock.
        assert outcome.round_time == 0.5

    def test_late_slots_are_zeroed_like_timed_out_stragglers(self, frc_3):
        tensor = one_file_tensor(frc_3)
        collect(tensor, [[0.1, 0.5, 1.0]], deadline=0.5)
        cube = cube_of(tensor)
        np.testing.assert_array_equal(cube[0, 0], np.full(4, 1.0))
        np.testing.assert_array_equal(cube[0, 1], np.zeros(4))
        np.testing.assert_array_equal(cube[0, 2], np.zeros(4))

    def test_late_event_contents(self, frc_3):
        tensor = one_file_tensor(frc_3)
        outcome = collect(tensor, [[0.1, 0.2, 0.9]], deadline=0.5)
        (event,) = outcome.late_events
        assert event.kind == LATE_KIND
        assert event.worker == int(frc_3.worker_slot_matrix()[0, 2])
        assert event.file == 0
        assert event.slot == 2
        assert event.delay == 0.9
        assert event.dropped
        # Unlike legacy kinds, late events serialize their slot.
        assert event.as_dict()["slot"] == 2

    def test_quorum_closes_file_and_sets_round_time(self, frc_3):
        tensor = one_file_tensor(frc_3)
        outcome = collect(tensor, [[0.1, 0.2, 0.3]], quorum=2)
        np.testing.assert_array_equal(outcome.accepted, [[True, True, False]])
        assert outcome.file_close_times[0] == 0.2
        assert outcome.round_time == 0.2
        assert not outcome.deadline_fired
        (event,) = outcome.late_events
        assert event.slot == 2 and event.delay == 0.3
        np.testing.assert_array_equal(cube_of(tensor)[0, 2], np.zeros(4))

    def test_simultaneous_arrivals_break_ties_row_major(self, frc_3):
        tensor = one_file_tensor(frc_3)
        outcome = collect(tensor, [[0.1, 0.1, 0.1]], quorum=2)
        np.testing.assert_array_equal(outcome.accepted, [[True, True, False]])
        assert [e.slot for e in outcome.late_events] == [2]

    def test_never_sent_slots_are_left_alone(self, frc_3):
        """inf arrivals are the injectors' business: not accepted, not zeroed."""
        tensor = one_file_tensor(frc_3)
        outcome = collect(tensor, [[0.1, 0.2, np.inf]])
        np.testing.assert_array_equal(outcome.accepted, [[True, True, False]])
        assert outcome.late_events == ()
        # Slot 2 keeps whatever the fault pass wrote there (here: 3.0).
        np.testing.assert_array_equal(cube_of(tensor)[0, 2], np.full(4, 3.0))

    def test_inf_deadline_with_missing_message_closes_at_stream_end(self, frc_3):
        tensor = one_file_tensor(frc_3)
        outcome = collect(tensor, [[0.1, 0.7, np.inf]])
        assert outcome.round_time == 0.7
        assert np.isinf(outcome.file_close_times[0])
        assert not outcome.deadline_fired

    def test_finite_deadline_with_missing_message_fires_deadline(self, frc_3):
        tensor = one_file_tensor(frc_3)
        outcome = collect(tensor, [[0.1, 0.2, np.inf]], deadline=5.0)
        assert outcome.round_time == 5.0
        assert outcome.deadline_fired
        assert outcome.late_events == ()

    def test_empty_stream_round_time_zero(self, frc_3):
        tensor = one_file_tensor(frc_3)
        outcome = collect(tensor, [[np.inf, np.inf, np.inf]])
        assert outcome.round_time == 0.0
        assert not outcome.accepted.any()

    def test_rejects_wrong_arrival_shape(self, frc_3):
        tensor = one_file_tensor(frc_3)
        with pytest.raises(ConfigurationError):
            collect(tensor, [[0.1, 0.2]])


# --------------------------------------------------------------------------- #
# Partial aggregation over the accepted mask
# --------------------------------------------------------------------------- #
class TestPartialAggregation:
    def test_masked_vote_ignores_unarrived_majority(self, frc_3):
        """Two unarrived bad copies must not outvote the one accepted copy."""
        tensor = VoteTensor.from_honest(frc_3, np.ones((1, 4)))
        bad = np.full(4, 9.0)
        tensor.write_slots(np.array([0, 0]), np.array([0, 1]), bad)
        pipeline = ByzShieldPipeline(frc_3)
        full = pipeline.aggregate_tensor(tensor).winners.densified()
        np.testing.assert_array_equal(full[0], bad)
        arrived = np.array([[False, False, True]])
        masked = pipeline.aggregate_tensor(tensor, arrived).winners.densified()
        np.testing.assert_array_equal(masked[0], np.ones(4))

    def test_all_true_mask_matches_unmasked(self, mols_assignment, rng):
        tensor = VoteTensor.from_honest(
            mols_assignment, rng.standard_normal((mols_assignment.num_files, 5))
        )
        pipeline = ByzShieldPipeline(mols_assignment)
        arrived = np.ones(tensor.workers.shape, dtype=bool)
        np.testing.assert_array_equal(
            pipeline.aggregate_tensor(tensor, arrived).aggregate,
            pipeline.aggregate_tensor(tensor).aggregate,
        )

    def test_zero_arrival_file_votes_zero(self, frc_3):
        tensor = one_file_tensor(frc_3)
        pipeline = ByzShieldPipeline(frc_3)
        winners = pipeline.aggregate_tensor(
            tensor, np.zeros((1, 3), dtype=bool)
        ).winners
        np.testing.assert_array_equal(winners.densified(), np.zeros((1, 4)))

    def test_re_vote_reads_one_row_per_file(self, ramanujan_case2):
        """Every file incomplete (what stragglers do to an async round): the
        winners equal a per-file reference vote over the arrived copies of
        the cube, however the cube is stored, and beyond the rows it returns
        the re-vote's scratch is under one ``(r, d)`` block — the winners
        come from the round's content ids, and an incomplete file costs one
        row read, not a gather of its arrived copies."""
        assignment = ramanujan_case2.assignment
        f, r, dim = assignment.num_files, assignment.replication, 4096
        rng = np.random.default_rng(11)
        lazy = VoteTensor.from_honest(
            assignment, rng.standard_normal((f, dim)).astype(np.float32)
        )
        lazy.mark_byzantine({0, 7, 12, 19})
        files, slots = np.nonzero(lazy.byzantine_mask)
        lazy.write_slots(files, slots, np.full(dim, -3.0, dtype=np.float32))
        lazy.write_slots(
            files[:5], slots[:5], rng.standard_normal((5, dim)).astype(np.float32)
        )
        arrived = rng.random((f, r)) < 0.6
        arrived[np.arange(f), rng.integers(r, size=f)] = False  # nobody complete
        arrived[3] = False  # a file nobody returned in time
        cube = cube_of(lazy)
        expected = np.zeros((f, dim), dtype=np.float32)
        for i in range(f):
            if arrived[i].any():
                expected[i] = _reference_exact_majority(cube[i, arrived[i]])[0]

        def peak_of(tensor, mask):
            # the flat ByzShield pipeline's vote, without the robust stage
            tracemalloc.start()
            try:
                winners = majority_vote_votetensor(tensor, arrived=mask).winners
                return winners, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for tensor in (lazy, tensor_of(cube, assignment)):
            _, unmasked_peak = peak_of(tensor, None)
            winners, masked_peak = peak_of(tensor, arrived)
            assert winners.dtype == expected.dtype
            assert winners.densified().tobytes() == expected.tobytes()
            assert 3 in winners.files.tolist()  # the zero row of the empty file
            block = r * dim * expected.itemsize
            scratch = masked_peak - unmasked_peak - winners.rows.nbytes
            assert scratch < block

    def test_vanilla_drops_unarrived_rows(self, baseline_10):
        assignment = baseline_10.assignment
        tensor = VoteTensor.from_honest(
            assignment, np.arange(assignment.num_files, dtype=np.float64)[:, None]
            + np.zeros(3)
        )
        pipeline = VanillaPipeline(assignment, CoordinateWiseMedian())
        arrived = np.ones((assignment.num_files, 1), dtype=bool)
        arrived[::2] = False
        rows = pipeline.aggregate_tensor(tensor, arrived).winners
        assert rows.shape == (assignment.num_files // 2, 3)
        np.testing.assert_array_equal(rows.densified()[:, 0], np.arange(1, 10, 2))

    def test_vanilla_no_survivors_aggregates_zero(self, baseline_10):
        assignment = baseline_10.assignment
        tensor = VoteTensor.from_honest(
            assignment, np.ones((assignment.num_files, 3))
        )
        pipeline = VanillaPipeline(assignment, CoordinateWiseMedian())
        aggregate = pipeline.aggregate_tensor(
            tensor, np.zeros((assignment.num_files, 1), dtype=bool)
        ).aggregate
        np.testing.assert_array_equal(aggregate, np.zeros(3))

    def test_rejects_bad_mask_shape(self, frc_3):
        tensor = one_file_tensor(frc_3)
        pipeline = ByzShieldPipeline(frc_3)
        with pytest.raises(AggregationError):
            pipeline.aggregate_tensor(tensor, np.ones((2, 3), dtype=bool))


# --------------------------------------------------------------------------- #
# Cluster integration: sync path vs event path
# --------------------------------------------------------------------------- #
def make_cluster(assignment, runtime=None, injectors=(), seed=0):
    return TrainingCluster(
        assignment=assignment,
        worker_pool=WorkerPool(assignment, quadratic_gradient_fn),
        attack=ConstantAttack(),
        selector=FixedSelector((0, 5)),
        seed=seed,
        fault_injectors=injectors,
        runtime=runtime,
    )


ALL_INJECTORS = lambda: (  # noqa: E731 - fresh (stateful) injectors per call
    StragglerInjector(count=3, delay_model="exponential", delay=0.5, timeout=1.0),
    DropoutInjector(probability=0.1, down_for=2),
    MessageCorruptionInjector(probability=0.05, mode="noise", factor=1.0),
)


class TestClusterEventRound:
    def test_inf_deadline_bit_identical_to_sync(self, mols_assignment):
        sync = make_cluster(mols_assignment, injectors=ALL_INJECTORS())
        event = make_cluster(
            mols_assignment, runtime=AsyncRuntime(), injectors=ALL_INJECTORS()
        )
        params = np.ones(DIM)
        for iteration in range(5):
            data = make_file_data(mols_assignment.num_files, seed=iteration)
            a = sync.run_round_tensor(params, data, iteration)
            b = event.run_round_tensor(params, data, iteration)
            np.testing.assert_array_equal(cube_of(a.vote_tensor), cube_of(b.vote_tensor))
            assert a.fault_events == b.fault_events
            assert b.aggregation_mask is None

    def test_sync_and_event_clocks_differ_as_designed(self, mols_assignment):
        """Legacy sync time is max(delay)+base; the event path reads the engine."""
        injectors = (
            StragglerInjector(count=3, delay_model="fixed", delay=0.7),
        )
        sync = make_cluster(mols_assignment, injectors=injectors)
        event = make_cluster(
            mols_assignment, runtime=AsyncRuntime(), injectors=injectors
        )
        data = make_file_data(mols_assignment.num_files)
        a = sync.run_round_tensor(np.ones(DIM), data, 0)
        b = event.run_round_tensor(np.ones(DIM), data, 0)
        assert a.round_time == round_duration(list(a.fault_events)) == 0.7
        # The engine clock is the last arrival: straggler delay plus the
        # worker's compute + serialized-uplink schedule, so strictly later.
        assert b.round_time > 0.7
        base = base_arrival_times(
            mols_assignment,
            AsyncRuntime().cost_model,
            DIM,
            np.full(mols_assignment.num_files, 2.0),
        )
        assert b.round_time <= 0.7 + base.max() + 1e-12

    def test_quorum_partial_round(self, mols_assignment):
        runtime = AsyncRuntime(quorum=2, partial=True)
        cluster = make_cluster(mols_assignment, runtime=runtime)
        result = cluster.run_round_tensor(
            np.ones(DIM), make_file_data(mols_assignment.num_files), 0
        )
        assert result.accepted.sum(axis=1).max() <= 2
        np.testing.assert_array_equal(result.aggregation_mask, result.accepted)
        late = [e for e in result.fault_events if e.kind == LATE_KIND]
        assert late and all(e.dropped and e.slot >= 0 for e in late)
        # Every late slot was zeroed on the tensor.
        for e in late:
            np.testing.assert_array_equal(
                result.vote_tensor.read_slots([e.file], [e.slot])[0], np.zeros(DIM)
            )

    def test_quorum_above_replication_rejected(self, mols_assignment):
        with pytest.raises(TrainingError):
            make_cluster(mols_assignment, runtime=AsyncRuntime(quorum=4))


# --------------------------------------------------------------------------- #
# Scenario-level sync equivalence property: deadline=inf replays the
# synchronous trace bit-exactly on every stage except the round clock.
# --------------------------------------------------------------------------- #
EQUIVALENCE_SCENARIOS = [
    "mols-alie-all-faults",          # byzshield x alie x all three injectors
    "mols-alie-straggler-timeout",   # byzshield x alie x timeout-dropped stragglers
    "mols-corruption-zero",          # byzshield x corruption, no attack
    "detox-multikrum-revgrad-dropout",  # detox x revgrad x dropout churn
    "draco-clean-stragglers",        # draco, faults only
    "vanilla-multikrum-revgrad-dropout",  # vanilla x revgrad x dropout
]


@pytest.mark.parametrize("name", EQUIVALENCE_SCENARIOS)
def test_scenario_inf_deadline_matches_sync_trace(name):
    spec = get_scenario(name)
    assert not spec.runtime.is_event
    event_spec = dataclasses.replace(
        spec, runtime=RuntimeSpec(deadline=float("inf"))
    )
    sync = run_scenario(spec)
    event = run_scenario(event_spec)
    assert len(sync.trace.rounds) == len(event.trace.rounds)
    for a, b in zip(sync.trace.rounds, event.trace.rounds):
        assert a.votes_digest == b.votes_digest
        assert a.winners_digest == b.winners_digest
        assert a.aggregate_digest == b.aggregate_digest
        assert a.params_digest == b.params_digest
        assert a.mean_loss_hex == b.mean_loss_hex
        assert a.faults == b.faults  # in particular: no late events
        assert a.q == b.q and a.byzantine == b.byzantine
        assert a.num_distorted == b.num_distorted
    assert sync.trace.final_params_digest == event.trace.final_params_digest
    assert sync.trace.final_accuracy_hex == event.trace.final_accuracy_hex
