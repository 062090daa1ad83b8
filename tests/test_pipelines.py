"""Tests for the aggregation pipelines (ByzShield, DETOX, DRACO, vanilla)."""

import numpy as np
import pytest

from repro.aggregation.mean import MeanAggregator
from repro.aggregation.median import CoordinateWiseMedian
from repro.assignment.frc import FRCAssignment
from repro.assignment.mols import MOLSAssignment
from repro.core.pipelines import (
    ByzShieldPipeline,
    DetoxPipeline,
    DracoPipeline,
    VanillaPipeline,
)
from repro.core.vote_tensor import VoteTensor
from repro.exceptions import AggregationError, ConfigurationError

from cow_helpers import cube_of
from reference_vote import reference_vote


DIM = 4


def honest_votes(assignment, gradient_of_file):
    """The round where every worker returns the true file gradient."""
    return VoteTensor.from_honest(
        assignment,
        np.vstack([gradient_of_file(i) for i in range(assignment.num_files)]),
    )


def constant_gradient(value):
    return lambda i: np.full(DIM, float(value))


def indexed_gradient(i):
    return np.full(DIM, float(i))


def corrupt(tensor, byzantine_workers, payload):
    """Replace the returns of the Byzantine workers by ``payload``."""
    tensor.mark_byzantine(byzantine_workers)
    files, slots = np.nonzero(tensor.byzantine_mask)
    tensor.write_slots(files, slots, payload)
    return tensor


# --------------------------------------------------------------------------- #
# ByzShield
# --------------------------------------------------------------------------- #
def test_byzshield_no_attack_equals_median_of_true_gradients(mols_assignment):
    votes = honest_votes(mols_assignment, indexed_gradient)
    pipeline = ByzShieldPipeline(mols_assignment)
    result = pipeline.aggregate_tensor(votes).aggregate
    expected = np.median(
        np.vstack([indexed_gradient(i) for i in range(25)]), axis=0
    )
    assert np.allclose(result, expected)


def test_byzshield_corrects_minority_corruption(mols_assignment):
    """With q < r' no file majority can be corrupted: output is attack-free."""
    votes = honest_votes(mols_assignment, constant_gradient(1.0))
    corrupt(votes, {0}, np.full(DIM, -100.0))
    result = ByzShieldPipeline(mols_assignment).aggregate_tensor(votes).aggregate
    assert np.allclose(result, 1.0)


def test_byzshield_vote_majority_flips_with_enough_byzantines(mols_assignment):
    """Workers 0 and 5 share file 0; corrupting both flips that file's vote."""
    votes = honest_votes(mols_assignment, constant_gradient(1.0))
    corrupt(votes, {0, 5}, np.full(DIM, -100.0))
    outcome = ByzShieldPipeline(mols_assignment).aggregate_tensor(votes)
    assert np.allclose(outcome.winners.densified()[0], -100.0)
    # But the median across the 25 files still resists a single corrupted file.
    assert np.allclose(outcome.aggregate, 1.0)


def test_byzshield_requires_odd_replication():
    even = MOLSAssignment(load=5, replication=4, require_odd_replication=False).assignment
    with pytest.raises(ConfigurationError):
        ByzShieldPipeline(even)


def test_byzshield_validates_votes(mols_assignment, ramanujan_case1):
    votes = honest_votes(mols_assignment, constant_gradient(1.0))
    pipeline = ByzShieldPipeline(mols_assignment)
    # another (f, r) shape: five files, not 25
    short = honest_votes(FRCAssignment(num_workers=15, replication=3).assignment, constant_gradient(1.0))
    with pytest.raises(AggregationError):
        pipeline.aggregate_tensor(short)
    # same (f, r) shape, but the copies come from workers the assignment
    # did not give the files to
    other = honest_votes(ramanujan_case1.assignment, constant_gradient(1.0))
    assert other.workers.shape == votes.workers.shape
    with pytest.raises(AggregationError):
        pipeline.aggregate_tensor(other)


def test_byzshield_custom_aggregator(mols_assignment):
    votes = honest_votes(mols_assignment, indexed_gradient)
    pipeline = ByzShieldPipeline(mols_assignment, aggregator=MeanAggregator())
    assert np.allclose(pipeline.aggregate_tensor(votes).aggregate, np.mean(range(25)))


# --------------------------------------------------------------------------- #
# DETOX
# --------------------------------------------------------------------------- #
def test_detox_majority_then_robust(frc_15_3):
    assignment = frc_15_3.assignment
    votes = honest_votes(assignment, indexed_gradient)
    pipeline = DetoxPipeline(assignment, aggregator=CoordinateWiseMedian())
    result = pipeline.aggregate_tensor(votes).aggregate
    assert np.allclose(result, np.median(np.arange(5)))


def test_detox_group_corruption(frc_15_3):
    assignment = frc_15_3.assignment
    votes = honest_votes(assignment, constant_gradient(1.0))
    # Corrupt 2 of the 3 workers of group 0: its vote flips.
    corrupt(votes, {0, 1}, np.full(DIM, -50.0))
    pipeline = DetoxPipeline(assignment, aggregator=CoordinateWiseMedian())
    result = pipeline.aggregate_tensor(votes).aggregate
    # Median over [−50, 1, 1, 1, 1] is still 1.
    assert np.allclose(result, 1.0)


def test_detox_blockwise_vote_matches_monolithic(frc_15_3):
    assignment = frc_15_3.assignment
    votes = corrupt(honest_votes(assignment, indexed_gradient), {2, 6}, np.full(DIM, -7.0))
    mono = DetoxPipeline(assignment).aggregate_tensor(votes).aggregate
    blk = DetoxPipeline(assignment, block_size=1).aggregate_tensor(votes).aggregate
    assert np.array_equal(blk, mono)


def test_detox_requires_frc_like_assignment(mols_assignment):
    with pytest.raises(ConfigurationError):
        DetoxPipeline(mols_assignment)


def test_detox_requires_odd_groups():
    # FRCAssignment itself rejects even r, so build a raw graph instead.
    import numpy as np
    from repro.graphs.bipartite import BipartiteAssignment

    H = np.zeros((4, 2), dtype=np.int8)
    H[[0, 1], 0] = 1
    H[[2, 3], 1] = 1
    with pytest.raises(ConfigurationError):
        DetoxPipeline(BipartiteAssignment(H))


# --------------------------------------------------------------------------- #
# DRACO
# --------------------------------------------------------------------------- #
def test_draco_exact_recovery_when_bound_satisfied(frc_15_3):
    assignment = frc_15_3.assignment
    votes = honest_votes(assignment, indexed_gradient)
    corrupt(votes, {0}, np.full(DIM, 1e6))  # q=1, r=3 >= 2q+1
    pipeline = DracoPipeline(assignment, num_byzantine=1)
    assert pipeline.is_applicable
    result = pipeline.aggregate_tensor(votes).aggregate
    assert np.allclose(result, np.mean(np.arange(5)))


def test_draco_refuses_when_bound_violated(frc_15_3):
    assignment = frc_15_3.assignment
    votes = honest_votes(assignment, constant_gradient(1.0))
    pipeline = DracoPipeline(assignment, num_byzantine=2)  # r=3 < 2*2+1
    assert not pipeline.is_applicable
    with pytest.raises(AggregationError):
        pipeline.aggregate_tensor(votes)


def test_draco_validation(mols_assignment, frc_15_3):
    with pytest.raises(ConfigurationError):
        DracoPipeline(mols_assignment, num_byzantine=1)
    with pytest.raises(ConfigurationError):
        DracoPipeline(frc_15_3.assignment, num_byzantine=-1)


# --------------------------------------------------------------------------- #
# Vanilla
# --------------------------------------------------------------------------- #
def test_vanilla_applies_aggregator_to_worker_gradients(baseline_10):
    assignment = baseline_10.assignment
    votes = honest_votes(assignment, indexed_gradient)
    pipeline = VanillaPipeline(assignment, aggregator=CoordinateWiseMedian())
    result = pipeline.aggregate_tensor(votes).aggregate
    assert np.allclose(result, np.median(np.arange(10)))


def test_vanilla_rejects_redundant_assignment(mols_assignment):
    with pytest.raises(ConfigurationError):
        VanillaPipeline(mols_assignment, aggregator=CoordinateWiseMedian())


def test_vanilla_rejects_a_vote_block_size(baseline_10):
    with pytest.raises(ConfigurationError, match="no vote kernel"):
        VanillaPipeline(baseline_10.assignment, aggregator=CoordinateWiseMedian(), block_size=8)


def test_vanilla_mean_is_vulnerable(baseline_10):
    assignment = baseline_10.assignment
    votes = honest_votes(assignment, constant_gradient(1.0))
    corrupt(votes, {0}, np.full(DIM, 1e6))
    pipeline = VanillaPipeline(assignment, aggregator=MeanAggregator())
    result = pipeline.aggregate_tensor(votes).aggregate
    assert result[0] > 1e3


# --------------------------------------------------------------------------- #
# RoundOutcome: both halves of the round's one vote
# --------------------------------------------------------------------------- #
OUTCOME_PIPELINES = {
    "byzshield": ("mols_5_3", lambda a: ByzShieldPipeline(a)),
    "detox": ("frc_15_3", lambda a: DetoxPipeline(a, aggregator=CoordinateWiseMedian())),
    "draco": ("frc_15_3", lambda a: DracoPipeline(a, num_byzantine=1)),
    "vanilla": ("baseline_10", lambda a: VanillaPipeline(a, aggregator=MeanAggregator())),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("partial", [False, True], ids=["all-arrived", "some-missing"])
@pytest.mark.parametrize("kind", sorted(OUTCOME_PIPELINES))
def test_outcome_is_the_post_vote_matrix_and_its_reduction(request, kind, partial, dtype):
    scheme_fixture, build = OUTCOME_PIPELINES[kind]
    assignment = request.getfixturevalue(scheme_fixture).assignment
    pipeline = build(assignment)
    rng = np.random.default_rng(5)
    votes = VoteTensor.from_honest(
        assignment, rng.standard_normal((assignment.num_files, DIM)).astype(dtype)
    )
    corrupt(votes, {0}, np.full(DIM, -50.0))
    arrived = None
    if partial:
        arrived = rng.random(votes.workers.shape) < 0.6
        arrived[0] = False  # a file nobody returned in time
        arrived[1] = True

    outcome = pipeline.aggregate_tensor(votes, arrived)
    # each file's reference vote over its arrived copies, in file order; a
    # file without r' equal arrived copies abstains and has no row.  At
    # r = 1 (vanilla) these are the arrived workers' own returns.
    expected, counts = reference_vote(cube_of(votes), arrived)
    assert outcome.counts.tolist() == counts.tolist()
    assert outcome.winners.dtype == expected.dtype
    assert outcome.winners.shape == expected.shape
    assert outcome.winners.densified().tobytes() == expected.tobytes()
    assert np.array_equal(outcome.aggregate, pipeline._reduce(expected))
    assert outcome.aggregate.shape == (DIM,)


@pytest.mark.parametrize("kind", sorted(OUTCOME_PIPELINES))
def test_a_file_with_no_accepted_copy_abstains_in_every_pipeline(request, kind):
    """The file's copies carry a payload that would win it, but none was
    accepted: no pipeline gives the file a row, and a round with no
    accepted copy at all is a zero update."""
    scheme_fixture, build = OUTCOME_PIPELINES[kind]
    assignment = request.getfixturevalue(scheme_fixture).assignment
    pipeline = build(assignment)
    votes = honest_votes(assignment, indexed_gradient)
    votes.write_slots([1] * votes.replication, range(votes.replication), np.full(DIM, -7.0))
    arrived = np.ones(votes.workers.shape, dtype=bool)
    arrived[1] = False

    outcome = pipeline.aggregate_tensor(votes, arrived)
    kept = [i for i in range(assignment.num_files) if i != 1]
    assert outcome.winner_refs[:, 0].tolist() == kept
    assert outcome.winners.densified().tobytes() == cube_of(votes)[kept, 0].tobytes()
    assert np.array_equal(outcome.aggregate, pipeline._reduce(cube_of(votes)[kept, 0]))

    nothing = pipeline.aggregate_tensor(votes, np.zeros(votes.workers.shape, dtype=bool))
    assert nothing.winners.shape == (0, DIM) and nothing.winner_refs.shape == (0, 2)
    assert nothing.aggregate.dtype == votes.dtype
    assert np.array_equal(nothing.aggregate, np.zeros(DIM))
