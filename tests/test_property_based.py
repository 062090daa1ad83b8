"""Property-based tests (hypothesis) on the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aggregation.geometric_median import geometric_median
from repro.aggregation.majority import (
    _reference_clustered_majority,
    _reference_exact_majority,
    majority_vote_tensor,
)
from repro.aggregation.median import CoordinateWiseMedian
from repro.aggregation.trimmed_mean import TrimmedMeanAggregator
from repro.assignment.frc import FRCAssignment
from repro.assignment.mols import MOLSAssignment
from repro.assignment.ramanujan import RamanujanAssignment
from repro.attacks.base import AttackContext
from repro.attacks.registry import available_attacks, create_attack
from repro.cluster.topology import GroupTopology
from repro.core.distortion import (
    count_distorted,
    majority_threshold,
    max_distortion_greedy,
)
from repro.core.pipelines import ByzShieldPipeline, DetoxPipeline
from repro.core.vote_tensor import VoteTensor
from repro.fields.latin_squares import LatinSquare, are_orthogonal
from repro.fields.prime_field import PrimeField
from repro.graphs.expansion import gamma_upper_bound, neighborhood_lower_bound
from repro.graphs.spectral import second_eigenvalue
from repro.utils.arrays import flatten_arrays, unflatten_vector

SUPPRESS = [HealthCheck.too_slow]

PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13])
SMALL_PRIMES = st.sampled_from([5, 7, 11])


# --------------------------------------------------------------------------- #
# Finite fields and Latin squares
# --------------------------------------------------------------------------- #
@settings(deadline=None, max_examples=50, suppress_health_check=SUPPRESS)
@given(p=PRIMES, a=st.integers(0, 100), b=st.integers(0, 100), c=st.integers(0, 100))
def test_field_axioms(p, a, b, c):
    field = PrimeField(p)
    # Commutativity and associativity of addition / multiplication.
    assert field.add(a, b) == field.add(b, a)
    assert field.mul(a, b) == field.mul(b, a)
    assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
    assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
    # Distributivity.
    assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
    # Additive and multiplicative inverses.
    assert field.add(a, field.neg(a)) == 0
    if a % p != 0:
        assert field.mul(a, field.inv(a)) == 1


@settings(deadline=None, max_examples=30, suppress_health_check=SUPPRESS)
@given(l=SMALL_PRIMES, data=st.data())
def test_linear_latin_squares_are_valid_and_orthogonal(l, data):
    alpha = data.draw(st.integers(1, l - 1))
    beta = data.draw(st.integers(1, l - 1))
    square_a = LatinSquare.from_linear(l, alpha)
    square_b = LatinSquare.from_linear(l, beta)
    assert square_a.degree == l
    if alpha != beta:
        assert are_orthogonal(square_a, square_b)
    else:
        assert not are_orthogonal(square_a, square_b)


# --------------------------------------------------------------------------- #
# Assignment graph invariants
# --------------------------------------------------------------------------- #
@settings(deadline=None, max_examples=15, suppress_health_check=SUPPRESS)
@given(
    l=st.sampled_from([5, 7]),
    r=st.sampled_from([3, 5]),
)
def test_mols_assignment_structural_invariants(l, r):
    if r > l - 1:
        return
    assignment = MOLSAssignment(load=l, replication=r).assignment
    assert assignment.num_workers == r * l
    assert assignment.num_files == l * l
    assert assignment.num_edges == r * l * l
    # Biregularity.
    assert np.all(assignment.worker_degrees == l)
    assert np.all(assignment.file_degrees == r)
    # Optimal expansion: µ₁ = 1/r.
    assert second_eigenvalue(assignment) == pytest.approx(1.0 / r, abs=1e-8)


@settings(deadline=None, max_examples=10, suppress_health_check=SUPPRESS)
@given(m=st.sampled_from([3, 5, 7]), s=st.sampled_from([3, 5, 7]))
def test_ramanujan_assignment_matches_eq6(m, s):
    replication = m if m < s else s
    if replication % 2 == 0:
        return
    assignment = RamanujanAssignment(m=m, s=s).assignment
    expected = RamanujanAssignment(m=m, s=s).expected_parameters
    assert assignment.num_workers == expected["num_workers"]
    assert assignment.num_files == expected["num_files"]
    assert assignment.computational_load == expected["load"]
    assert assignment.replication == expected["replication"]


# --------------------------------------------------------------------------- #
# Distortion invariants
# --------------------------------------------------------------------------- #
@settings(deadline=None, max_examples=25, suppress_health_check=SUPPRESS)
@given(q=st.integers(0, 15), seed=st.integers(0, 10_000))
def test_random_byzantine_sets_never_beat_gamma(q, seed):
    assignment = MOLSAssignment(load=5, replication=3).assignment
    rng = np.random.default_rng(seed)
    subset = rng.choice(assignment.num_workers, size=q, replace=False)
    corrupted = count_distorted(assignment, subset)
    if q > 0:
        gamma = gamma_upper_bound(q, 5, 3, 15, second_eigenvalue(assignment))
        assert corrupted <= gamma + 1e-9
    else:
        assert corrupted == 0
    # Monotonicity: a superset can only corrupt at least as many files.
    if 0 < q < assignment.num_workers:
        remaining = [w for w in range(assignment.num_workers) if w not in set(int(x) for x in subset)]
        extra = rng.choice(remaining)
        assert count_distorted(assignment, list(subset) + [int(extra)]) >= corrupted


@settings(deadline=None, max_examples=20, suppress_health_check=SUPPRESS)
@given(q=st.integers(0, 15))
def test_greedy_returns_a_valid_subset_achieving_its_count(q):
    assignment = MOLSAssignment(load=5, replication=3).assignment
    greedy = max_distortion_greedy(assignment, q)
    # The reported set is a valid q-subset and really achieves the reported count.
    assert len(set(greedy.byzantine_workers)) == q
    assert count_distorted(assignment, greedy.byzantine_workers) == greedy.c_max
    assert 0 <= greedy.epsilon <= 1.0


@settings(deadline=None, max_examples=40, suppress_health_check=SUPPRESS)
@given(
    q=st.integers(1, 20),
    l=st.integers(2, 10),
    r=st.sampled_from([3, 5, 7]),
)
def test_neighborhood_bound_is_nonnegative_and_at_most_ql_over_gamma_consistency(q, l, r):
    K = r * l
    if q > K:
        return
    mu1 = 1.0 / r
    beta = neighborhood_lower_bound(q, l, r, K, mu1)
    assert beta >= 0.0
    assert beta <= q * l + 1e-9  # cannot exceed the total number of stored copies
    gamma = gamma_upper_bound(q, l, r, K, mu1)
    assert gamma >= 0.0
    # Gamma formula consistency: gamma = (ql - beta) / (r' - 1).
    assert gamma == pytest.approx((q * l - beta) / (majority_threshold(r) - 1))


# --------------------------------------------------------------------------- #
# Aggregator invariants
# --------------------------------------------------------------------------- #
finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@settings(deadline=None, max_examples=50, suppress_health_check=SUPPRESS)
@given(
    votes=st.lists(
        st.lists(finite_floats, min_size=3, max_size=3), min_size=1, max_size=12
    )
)
def test_median_is_within_vote_range(votes):
    matrix = np.array(votes, dtype=np.float64)
    result = CoordinateWiseMedian()(matrix)
    assert np.all(result >= matrix.min(axis=0) - 1e-12)
    assert np.all(result <= matrix.max(axis=0) + 1e-12)


@settings(deadline=None, max_examples=50, suppress_health_check=SUPPRESS)
@given(
    votes=st.lists(
        st.lists(finite_floats, min_size=2, max_size=2), min_size=5, max_size=12
    ),
    trim=st.integers(0, 2),
)
def test_trimmed_mean_within_range(votes, trim):
    matrix = np.array(votes, dtype=np.float64)
    if matrix.shape[0] <= 2 * trim:
        return
    result = TrimmedMeanAggregator(trim=trim)(matrix)
    # A mean of n equal values x is only within ~n·eps·|x| of x.
    slack = 1e-12 * (1.0 + np.abs(matrix).max(axis=0))
    assert np.all(result >= matrix.min(axis=0) - slack)
    assert np.all(result <= matrix.max(axis=0) + slack)


@settings(deadline=None, max_examples=30, suppress_health_check=SUPPRESS)
@given(
    votes=st.lists(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=2),
        min_size=1,
        max_size=10,
    )
)
def test_geometric_median_cost_not_worse_than_mean(votes):
    matrix = np.array(votes, dtype=np.float64)
    gm = geometric_median(matrix)
    mean = matrix.mean(axis=0)
    cost_gm = np.linalg.norm(matrix - gm, axis=1).sum()
    cost_mean = np.linalg.norm(matrix - mean, axis=1).sum()
    assert cost_gm <= cost_mean + 1e-6


@settings(deadline=None, max_examples=50, suppress_health_check=SUPPRESS)
@given(
    num_votes=st.integers(1, 9),
    dim=st.integers(1, 6),
    winner_count=st.integers(1, 9),
    seed=st.integers(0, 1000),
)
def test_majority_vote_returns_most_frequent(num_votes, dim, winner_count, seed):
    if winner_count > num_votes:
        return
    rng = np.random.default_rng(seed)
    winner = rng.standard_normal(dim)
    votes = [winner.copy() for _ in range(winner_count)]
    votes += [rng.standard_normal(dim) for _ in range(num_votes - winner_count)]
    rng.shuffle(votes)
    winners, counts = majority_vote_tensor(np.array(votes)[None])
    if winner_count > num_votes - winner_count:
        assert np.array_equal(winners[0], winner)
        assert counts[0] == winner_count


# --------------------------------------------------------------------------- #
# The vote stage vs the pure-Python reference votes
# --------------------------------------------------------------------------- #
VOTING_SETUPS = {
    "mols": (MOLSAssignment(load=5, replication=3).assignment, ByzShieldPipeline),
    "ramanujan": (RamanujanAssignment(m=3, s=5).assignment, ByzShieldPipeline),
    "frc": (FRCAssignment(num_workers=15, replication=3).assignment, DetoxPipeline),
}


@settings(deadline=None, max_examples=120, suppress_health_check=SUPPRESS)
@given(
    scheme=st.sampled_from(sorted(VOTING_SETUPS)),
    attack_name=st.sampled_from(available_attacks()),
    q=st.integers(0, 15),
    dim=st.integers(1, 6),
    densify=st.booleans(),
    groups=st.one_of(st.none(), st.integers(2, 5)),
    block_size=st.one_of(st.none(), st.integers(1, 4)),
    tolerance=st.sampled_from([0.0, 0.0, 1e-9, 0.5]),
    seed=st.integers(0, 10_000),
)
def test_post_vote_matrix_matches_reference_vote(
    scheme, attack_name, q, dim, densify, groups, block_size, tolerance, seed
):
    """The goldens were recorded from the vectorized vote itself; this is its
    independent check.  Whatever the scheme, attack, q, tensor mode, group
    topology, block size or tolerance, ``post_vote_matrix`` must equal the
    single-file reference vote applied to each file's materialized copies —
    row for row, bit for bit."""
    assignment, pipeline_cls = VOTING_SETUPS[scheme]
    rng = np.random.default_rng(seed)
    honest = rng.standard_normal((assignment.num_files, dim))
    byzantine = tuple(
        int(w) for w in rng.choice(assignment.num_workers, size=q, replace=False)
    )
    tensor = VoteTensor.from_honest(assignment, honest)
    tensor.mark_byzantine(byzantine)
    context = AttackContext(
        assignment=assignment,
        byzantine_workers=byzantine,
        honest_matrix=honest,
        iteration=seed % 7,
        rng=np.random.default_rng(seed + 1),
    )
    create_attack(attack_name).apply_tensor(context, tensor)
    cube = tensor.materialize_files(np.arange(assignment.num_files))
    if densify:
        tensor = VoteTensor(cube.copy(), tensor.workers, tensor.byzantine_mask)
    assert tensor.is_lazy != densify

    if tolerance > 0:
        groups = None  # hierarchical voting is exact-equality only
    topology = (
        None if groups is None else GroupTopology(assignment.num_workers, groups)
    )
    pipeline = pipeline_cls(
        assignment, vote_tolerance=tolerance, topology=topology, block_size=block_size
    )
    voted = pipeline.post_vote_matrix(tensor).densified()
    for i in range(assignment.num_files):
        if tolerance == 0.0:
            expected, _ = _reference_exact_majority(cube[i])
        else:
            expected, _ = _reference_clustered_majority(cube[i], tolerance)
        assert np.array_equal(voted[i], expected), (i, voted[i], expected)


# --------------------------------------------------------------------------- #
# Flatten / unflatten roundtrip
# --------------------------------------------------------------------------- #
@settings(deadline=None, max_examples=40, suppress_health_check=SUPPRESS)
@given(
    shapes=st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=5
    ),
    seed=st.integers(0, 1000),
)
def test_flatten_unflatten_roundtrip(shapes, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(shape) for shape in shapes]
    flat = flatten_arrays(arrays)
    restored = unflatten_vector(flat, shapes)
    assert len(restored) == len(arrays)
    for original, back in zip(arrays, restored):
        assert np.allclose(original, back)
