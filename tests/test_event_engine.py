"""Event-driven round engine: arrival schedules, deadline/quorum, the synchronous clock."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.aggregation.majority import majority_vote_votetensor
from repro.assignment.baseline import BaselineAssignment
from repro.assignment.frc import FRCAssignment
from repro.assignment.mols import MOLSAssignment
from repro.assignment.ramanujan import RamanujanAssignment
from repro.attacks.constant import ConstantAttack
from repro.cluster.events import (
    LATE_KIND,
    AsyncRuntime,
    EventDrivenRound,
    UplinkSchedule,
)
from repro.cluster.faults import DropoutInjector, StragglerInjector
from repro.cluster.timing import CostModel
from repro.core.pipelines import AggregationPipeline
from repro.core.vote_tensor import VoteTensor
from repro.exceptions import AggregationError, ConfigurationError
from repro.scenarios.catalog import get_scenario
from repro.scenarios.runner import ScenarioRunner, run_scenario
from repro.scenarios.spec import ScenarioSpec

from cow_helpers import FixedSelector, cube_of, tensor_of
from reference_round import reference_arrivals, reference_collect
from reference_vote import reference_vote
from test_cluster import DIM, build_cluster, make_file_data

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
# Arrival schedules (their values: the reference loops, further below)
# --------------------------------------------------------------------------- #
def test_arrival_times_reject_wrong_samples_shape(mols_assignment):
    with pytest.raises(ConfigurationError):
        UplinkSchedule(mols_assignment).arrival_times(
            COST, 10, np.ones(mols_assignment.num_files - 1), np.zeros(mols_assignment.num_workers)
        )


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

    def test_late_slots_keep_their_payload(self, frc_3):
        """A late copy is not accepted, so it abstains; the tensor is not written."""
        tensor = one_file_tensor(frc_3)
        before = cube_of(tensor)
        outcome = collect(tensor, [[0.1, 0.5, 1.0]], deadline=0.5)
        np.testing.assert_array_equal(outcome.accepted, [[True, False, False]])
        np.testing.assert_array_equal(cube_of(tensor), before)

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
        np.testing.assert_array_equal(cube_of(tensor)[0, 2], np.full(4, 3.0))

    def test_simultaneous_arrivals_break_ties_row_major(self, frc_3):
        tensor = one_file_tensor(frc_3)
        outcome = collect(tensor, [[0.1, 0.1, 0.1]], quorum=2)
        np.testing.assert_array_equal(outcome.accepted, [[True, True, False]])
        assert [e.slot for e in outcome.late_events] == [2]

    def test_never_sent_slots_are_left_alone(self, frc_3):
        """inf arrivals are neither accepted nor written."""
        tensor = one_file_tensor(frc_3)
        outcome = collect(tensor, [[0.1, 0.2, np.inf]])
        np.testing.assert_array_equal(outcome.accepted, [[True, True, False]])
        assert outcome.late_events == ()
        # Slot 2 keeps its payload (here: 3.0).
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
# The array kernels against the message-by-message loops of the reference round
# --------------------------------------------------------------------------- #
ORACLE_ASSIGNMENTS = {
    "mols": lambda: MOLSAssignment(load=5, replication=3).assignment,  # K=15, f=25, r=3
    "mols-l7": lambda: MOLSAssignment(load=7, replication=5).assignment,  # K=35, f=49, r=5
    "ramanujan": lambda: RamanujanAssignment(m=5, s=5).assignment,  # K=25, f=25, r=5
    "ramanujan-s3": lambda: RamanujanAssignment(m=3, s=3).assignment,  # K=9, f=9, r=3
    "frc": lambda: FRCAssignment(num_workers=15, replication=3).assignment,  # K=15, f=5, r=3
    "frc-r5": lambda: FRCAssignment(num_workers=15, replication=5).assignment,  # K=15, f=3, r=5
    "baseline": lambda: BaselineAssignment(num_workers=10).assignment,  # K=f=10, r=1
}


def bits(array):
    return np.asarray(array, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("scheme", sorted(ORACLE_ASSIGNMENTS))
def test_arrivals_and_collect_match_the_loops_bit_for_bit(scheme):
    """Random rounds: integer sample counts, zero and default cost models,
    straggler delays on a coarse grid (ties) or not, crashed workers, and
    every deadline / quorum / group setting — arrivals, accepted mask, close
    times, round time and late events are the reference loops' bits, and no
    slot is written."""
    assignment = ORACLE_ASSIGNMENTS[scheme]()
    workers = assignment.worker_slot_matrix()
    f, r = workers.shape
    K = assignment.num_workers
    rng = np.random.default_rng(sum(map(ord, scheme)))
    seen = set()
    for trial in range(40):
        cost = COST if trial % 2 else CostModel(0.0, 0.0, 0.0, 0.0)
        dim = int(rng.integers(1, 20_000))
        samples = rng.integers(0, 40, f).astype(np.float64)
        stragglers = rng.choice(K, size=int(rng.integers(0, K // 2)), replace=False)
        delay = rng.exponential(0.02, stragglers.size)
        if trial % 3 == 0:
            delay = np.round(delay / 0.01) * 0.01
        delays = np.zeros(K)
        delays[stragglers] = delay
        crashed = rng.choice(K, size=int(rng.integers(0, 3)), replace=False)
        delays[crashed] = np.inf
        arrivals = UplinkSchedule(assignment).arrival_times(cost, dim, samples, delays)
        expected = reference_arrivals(assignment, cost, dim, samples, delays)
        np.testing.assert_array_equal(bits(arrivals), bits(expected))

        # A deadline that is some message's arrival time tests the exclusive cut.
        sent = arrivals[(arrivals > 0) & np.isfinite(arrivals)]
        deadlines = [np.inf, float(rng.uniform(0.001, 0.1))] + ([float(np.median(sent))] if sent.size else [])
        runtime = AsyncRuntime(
            deadline=deadlines[trial % len(deadlines)],
            quorum=[None, *range(1, r + 1)][trial % (r + 1)],
            groups=[None, 1, 2, 4, 7][trial % 5],
        )
        honest = rng.standard_normal((f, 3))
        tensor = VoteTensor.from_honest(assignment, honest)
        got = EventDrivenRound(runtime).collect(tensor, arrivals)
        accepted, late, file_close, group_close, round_time = reference_collect(
            workers, arrivals, runtime.quorum, runtime.groups, runtime.deadline
        )
        np.testing.assert_array_equal(got.accepted, accepted)
        np.testing.assert_array_equal(bits(got.file_close_times), bits(file_close))
        if group_close is None:
            assert got.group_close_times is None
        else:
            np.testing.assert_array_equal(bits(got.group_close_times), bits(group_close))
        assert bits(got.round_time) == bits(round_time)
        cut = any(arrivals[i, k] >= runtime.deadline for i, k in late)
        closed = bool(np.isfinite(file_close).all())
        assert got.deadline_fired == (cut or (not closed and np.isfinite(runtime.deadline)))
        assert [(e.kind, e.worker, e.file, e.slot, e.delay, e.dropped) for e in got.late_events] == [
            (LATE_KIND, workers[i, k], i, k, arrivals[i, k], True) for i, k in late
        ]
        assert all(type(e.delay) is float for e in got.late_events)
        assert tensor.num_override_rows == 0
        seen |= {
            name for name, hit in [
                ("late", bool(late)),
                ("cut", got.deadline_fired),
                ("unsent", not np.isfinite(arrivals).all()),
                ("closed", closed),
            ] if hit
        }
    assert seen == {"late", "cut", "unsent", "closed"}  # every branch was taken


# --------------------------------------------------------------------------- #
# The vote over the accepted mask: a copy that did not arrive abstains
# --------------------------------------------------------------------------- #
class TestAbstention:
    def test_masked_vote_ignores_unarrived_majority(self, frc_3):
        """Two unarrived bad copies do not vote: they win the file only when
        they arrive, and without them its one accepted honest copy is short
        of r' = 2, so the file abstains instead of being out-voted."""
        tensor = VoteTensor.from_honest(frc_3, np.ones((1, 4)))
        bad = np.full(4, 9.0)
        tensor.write_slots(np.array([0, 0]), np.array([0, 1]), bad)
        pipeline = AggregationPipeline(frc_3)
        full = pipeline.aggregate_tensor(tensor)
        np.testing.assert_array_equal(full.winners.densified()[0], bad)
        assert full.counts.tolist() == [2]
        for arrival in ([False, False, True], [False, True, True]):
            masked = pipeline.aggregate_tensor(tensor, np.array([arrival]))
            assert masked.counts.tolist() == [0] and masked.winners.shape == (0, 4)

    def test_all_true_mask_matches_unmasked(self, mols_assignment, rng):
        tensor = VoteTensor.from_honest(
            mols_assignment, rng.standard_normal((mols_assignment.num_files, 5))
        )
        pipeline = AggregationPipeline(mols_assignment)
        arrived = np.ones(tensor.workers.shape, dtype=bool)
        np.testing.assert_array_equal(
            pipeline.aggregate_tensor(tensor, arrived).aggregate,
            pipeline.aggregate_tensor(tensor).aggregate,
        )

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
        expected, counts = reference_vote(cube, arrived)

        def peak_of(tensor, mask):
            # the flat ByzShield pipeline's vote, without the robust stage
            tracemalloc.start()
            try:
                vote = majority_vote_votetensor(tensor, arrived=mask)
                return vote, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for tensor in (lazy, tensor_of(cube, assignment)):
            _, unmasked_peak = peak_of(tensor, None)
            vote, masked_peak = peak_of(tensor, arrived)
            assert vote.winners.dtype == expected.dtype
            assert vote.winners.densified().tobytes() == expected.tobytes()
            assert vote.counts.tolist() == counts.tolist()
            assert 3 not in vote.winner_refs[:, 0]  # the empty file abstains
            block = r * dim * expected.itemsize
            scratch = masked_peak - unmasked_peak  # the winners hold no row
            assert scratch < block

    def test_rejects_bad_mask_shape(self, frc_3):
        tensor = one_file_tensor(frc_3)
        pipeline = AggregationPipeline(frc_3)
        with pytest.raises(AggregationError):
            pipeline.aggregate_tensor(tensor, np.ones((2, 3), dtype=bool))


# --------------------------------------------------------------------------- #
# Cluster integration: the synchronous round and cost-model event rounds
# --------------------------------------------------------------------------- #
def make_cluster(assignment, runtime=None, injectors=(), seed=0):
    return build_cluster(
        assignment,
        attack=ConstantAttack(),
        selector=FixedSelector((0, 5)),
        seed=seed,
        fault_injectors=injectors,
        runtime=runtime,
    )


class TestClusterEventRound:
    def test_default_runtime_is_the_zero_cost_sync_round(self, mols_assignment):
        """No runtime: no quorum, an all-zero cost model and the largest
        straggler timeout as the deadline (else inf)."""
        plain = make_cluster(mols_assignment).runtime
        assert plain.deadline == float("inf")
        assert plain.quorum is None and plain.groups is None
        assert plain.cost_model == CostModel(0.0, 0.0, 0.0, 0.0)
        timed = make_cluster(
            mols_assignment,
            injectors=(
                StragglerInjector(count=1, timeout=0.5),
                DropoutInjector(probability=0.1),
                StragglerInjector(count=1, timeout=2.0),
            ),
        ).runtime
        assert timed.deadline == 2.0
        mixed = make_cluster(
            mols_assignment,
            injectors=(StragglerInjector(count=1), StragglerInjector(count=1, timeout=0.5)),
        ).runtime
        assert mixed.deadline == float("inf")

    def test_sync_round_clock_is_the_slowest_surviving_straggler(self, mols_assignment):
        injectors = (StragglerInjector(count=3, delay_model="fixed", delay=0.7),)
        result = make_cluster(mols_assignment, injectors=injectors).run_round_tensor(
            np.ones(DIM), make_file_data(mols_assignment.num_files), 0
        )
        assert result.round_time == 0.7
        assert result.accepted.all()
        delayed = [e.worker for e in result.fault_events]
        np.testing.assert_array_equal(
            result.arrivals, np.where(np.isin(result.vote_tensor.workers, delayed), 0.7, 0.0)
        )

    def test_sync_round_that_abandons_a_straggler_ends_at_the_timeout(self, mols_assignment):
        injectors = (
            StragglerInjector(count=3, delay_model="fixed", delay=0.7, timeout=0.5),
        )
        result = make_cluster(mols_assignment, injectors=injectors).run_round_tensor(
            np.ones(DIM), make_file_data(mols_assignment.num_files), 0
        )
        assert all(e.dropped and e.delay == 0.5 for e in result.fault_events)
        assert result.round_time == 0.5
        dropped = np.isin(result.vote_tensor.workers, [e.worker for e in result.fault_events])
        np.testing.assert_array_equal(result.accepted, ~dropped)

    def test_no_straggler_that_beat_its_own_timeout_is_late(self, mols_assignment):
        """Two straggler models: the tight one abandons its workers, the
        loose one's survivors arrive after the tight timeout yet before the
        deadline (the larger timeout), so nothing is late."""
        injectors = (
            StragglerInjector(count=2, delay_model="fixed", delay=1.0, timeout=0.5),
            StragglerInjector(count=2, delay_model="fixed", delay=1.0, timeout=2.0),
        )
        result = make_cluster(mols_assignment, injectors=injectors).run_round_tensor(
            np.ones(DIM), make_file_data(mols_assignment.num_files), 0
        )
        dropped = {e.worker for e in result.fault_events if e.dropped}
        assert dropped and not any(e.kind == LATE_KIND for e in result.fault_events)
        np.testing.assert_array_equal(
            result.accepted, ~np.isin(result.vote_tensor.workers, list(dropped))
        )
        assert result.round_time == 2.0

    def test_an_untimed_straggler_entry_leaves_the_round_without_deadline(self, mols_assignment):
        """One entry has no timeout: its slow workers are waited for even
        past the other entry's timeout, and only that entry abandons."""
        injectors = (
            StragglerInjector(count=2, delay_model="fixed", delay=1.0),
            StragglerInjector(count=2, delay_model="fixed", delay=1.0, timeout=0.5),
        )
        result = make_cluster(mols_assignment, injectors=injectors).run_round_tensor(
            np.ones(DIM), make_file_data(mols_assignment.num_files), 0
        )
        slow = {e.worker for e in result.fault_events if not e.dropped}
        dropped = {e.worker for e in result.fault_events if e.dropped}
        assert slow - dropped and dropped
        assert not any(e.kind == LATE_KIND for e in result.fault_events)
        np.testing.assert_array_equal(
            result.accepted, ~np.isin(result.vote_tensor.workers, list(dropped))
        )
        clean = make_cluster(mols_assignment).run_round_tensor(
            np.ones(DIM), make_file_data(mols_assignment.num_files), 0
        )
        files, slots = np.nonzero(np.isin(result.vote_tensor.workers, list(slow - dropped)))
        np.testing.assert_array_equal(
            result.vote_tensor.read_slots(files, slots),
            clean.vote_tensor.read_slots(files, slots),
        )
        assert result.round_time == 1.0

    def test_a_worker_two_entries_pick_is_as_late_as_the_larger_delay(self, mols_assignment):
        """Both entries pick every worker; each delay beats its timeout, so
        the worker arrives at the larger one (not their sum) and is kept."""
        K = mols_assignment.num_workers
        injectors = (
            StragglerInjector(count=K, delay_model="fixed", delay=0.3, timeout=0.5),
            StragglerInjector(count=K, delay_model="fixed", delay=0.4, timeout=0.5),
        )
        result = make_cluster(mols_assignment, injectors=injectors).run_round_tensor(
            np.ones(DIM), make_file_data(mols_assignment.num_files), 0
        )
        assert len(result.fault_events) == 2 * K
        assert result.accepted.all()
        np.testing.assert_array_equal(result.arrivals, np.full(result.arrivals.shape, 0.4))
        assert result.round_time == 0.4

    def test_quorum_round(self, mols_assignment):
        runtime = AsyncRuntime(quorum=2)
        cluster = make_cluster(mols_assignment, runtime=runtime)
        result = cluster.run_round_tensor(
            np.ones(DIM), make_file_data(mols_assignment.num_files), 0
        )
        assert result.accepted.sum(axis=1).max() <= 2
        late = [e for e in result.fault_events if e.kind == LATE_KIND]
        assert late and all(e.dropped and e.slot >= 0 for e in late)
        assert not result.accepted[[e.file for e in late], [e.slot for e in late]].any()
        # Every late slot keeps what the sync round holds there.
        clean = make_cluster(mols_assignment).run_round_tensor(
            np.ones(DIM), make_file_data(mols_assignment.num_files), 0
        )
        files, slots = [e.file for e in late], [e.slot for e in late]
        np.testing.assert_array_equal(
            result.vote_tensor.read_slots(files, slots),
            clean.vote_tensor.read_slots(files, slots),
        )

    def test_quorum_above_replication_rejected(self):
        data = get_scenario("mols-async-quorum").to_dict()  # r = 3
        data["runtime"]["quorum"] = 4
        with pytest.raises(
            ConfigurationError, match=r"^scenario\.runtime\.quorum: runtime quorum 4 exceeds"
        ):
            ScenarioRunner(ScenarioSpec.from_dict(data)).check()

    def test_quorum_below_r_prime_rejected_without_groups(self):
        """r = 5, r' = 3: a file that closes after two copies could never be
        decided, so an ungrouped quorum of 2 is refused by the runner's
        check, by name.  With groups the quorum is per (file, group) cell
        and a file's cells together accept more copies, so the same quorum
        builds."""
        data = get_scenario("ramanujan-async-quorum-partial").to_dict()
        data["runtime"]["quorum"] = 2
        with pytest.raises(
            ConfigurationError, match=r"^scenario\.runtime\.quorum: runtime quorum 2 is below the r'=3"
        ):
            ScenarioRunner(ScenarioSpec.from_dict(data)).check()
        data["runtime"]["quorum"] = 3
        ScenarioRunner(ScenarioSpec.from_dict(data)).check()
        data["runtime"]["quorum"] = 2
        data["topology"] = {"groups": 3}
        runtime = ScenarioRunner(ScenarioSpec.from_dict(data)).check().runtime
        assert runtime.quorum == 2 and runtime.groups == 3


# --------------------------------------------------------------------------- #
# The one clock case no golden covers: a straggler timeout is set, a worker
# drops out, and no straggler is abandoned.  The PS cannot tell the crashed
# worker from a slow one, so it waits until the timeout.  Without a timeout
# there is no deadline, and the round ends at its last arrival.
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("timeout, crash_round_time", [(0.8, 0.8), (None, 0.3)], ids=["timeout", "no-timeout"])
def test_a_crashed_worker_holds_the_round_until_the_deadline(timeout, crash_round_time):
    data = get_scenario("mols-alie-straggler-timeout").to_dict()
    data["name"] = "mols-timeout-and-dropout"
    data["training"]["num_iterations"] = 6
    stragglers = {"count": 2, "delay_model": "fixed", "delay": 0.3}
    if timeout is not None:
        stragglers["timeout"] = timeout
    data["faults"] = [
        {"kind": "stragglers", "params": stragglers},
        {"kind": "dropout", "params": {"probability": 0.1}},
    ]
    rounds = run_scenario(ScenarioSpec.from_dict(data)).trace.rounds
    crashed = [any(f["kind"] == "dropout" for f in r.faults) for r in rounds]
    assert any(crashed) and not all(crashed)
    for round_, crash in zip(rounds, crashed):
        assert not any(f["dropped"] for f in round_.faults if f["kind"] == "straggler")
        assert round_.round_time == (crash_round_time if crash else 0.3)
