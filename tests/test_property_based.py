"""Property-based tests (hypothesis) on the core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.aggregation.geometric_median import geometric_median
from repro.aggregation.majority import majority_vote_votetensor
from repro.aggregation.median import CoordinateWiseMedian
from repro.aggregation.trimmed_mean import TrimmedMeanAggregator
from repro.assignment.mols import MOLSAssignment
from repro.assignment.ramanujan import RamanujanAssignment
from repro.assignment.random_scheme import RandomAssignment
from repro.core.distortion import (
    distorted_files,
    majority_threshold,
    max_distortion,
)
from repro.fields.latin_squares import LatinSquare
from repro.graphs.expansion import gamma_upper_bound, neighborhood_lower_bound
from repro.graphs.spectral import second_eigenvalue

from cow_helpers import tensor_of
from paper_oracles import are_orthogonal, num_edges, ramanujan_parameters
from test_distortion import reference_exhaustive

SUPPRESS = [HealthCheck.too_slow]

SMALL_PRIMES = st.sampled_from([5, 7, 11])


# --------------------------------------------------------------------------- #
# Latin squares
# --------------------------------------------------------------------------- #
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
    assert num_edges(assignment) == r * l * l
    # Biregularity: both degrees are defined (the graph checks it) and equal l, r.
    assert assignment.computational_load == l
    assert assignment.replication == r
    # Optimal expansion: µ₁ = 1/r.
    assert second_eigenvalue(assignment) == pytest.approx(1.0 / r, abs=1e-8)


@settings(deadline=None, max_examples=10, suppress_health_check=SUPPRESS)
@given(m=st.sampled_from([3, 5, 7]), s=st.sampled_from([3, 5, 7]))
def test_ramanujan_assignment_matches_eq6(m, s):
    replication = m if m < s else s
    if replication % 2 == 0:
        return
    assignment = RamanujanAssignment(m=m, s=s).assignment
    expected = ramanujan_parameters(m, s)
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
    corrupted = distorted_files(assignment, subset).size
    if q > 0:
        gamma = gamma_upper_bound(q, 5, 3, 15, second_eigenvalue(assignment))
        assert corrupted <= gamma + 1e-9
    else:
        assert corrupted == 0
    # Monotonicity: a superset can only corrupt at least as many files.
    if 0 < q < assignment.num_workers:
        remaining = [w for w in range(assignment.num_workers) if w not in set(int(x) for x in subset)]
        extra = rng.choice(remaining)
        assert distorted_files(assignment, list(subset) + [int(extra)]).size >= corrupted


@st.composite
def small_assignments(draw):
    """A random biregular graph with K <= 15, or a MOLS graph (Tables 3 and 6)."""
    if draw(st.booleans()):
        load, replication = draw(st.sampled_from([(5, 3), (7, 3)]))
        return MOLSAssignment(load=load, replication=replication).assignment
    # The sampler rejects any draw that gives a worker one file twice; above
    # these loads a draw is accepted under 1 % of the time (never, for r = 5,
    # l = 5), so its 2000 attempts can run out.
    replication, max_load = draw(st.sampled_from([(1, 6), (3, 4), (5, 3)]))
    num_workers = draw(st.integers(max(replication, 2), 15))
    load = draw(st.integers(1, max_load))
    assume(num_workers * load % replication == 0)
    num_files = num_workers * load // replication
    assume(load <= num_files)
    seed = draw(st.integers(0, 10_000))
    return RandomAssignment(num_workers, num_files, replication, seed=seed).assignment


@settings(deadline=None, max_examples=40, suppress_health_check=SUPPRESS)
@given(assignment=small_assignments(), data=st.data())
def test_max_distortion_is_the_exact_worst_case(assignment, data):
    K = assignment.num_workers
    q = data.draw(st.integers(0, K))
    assume(math.comb(K, q) <= 20_000)
    result = max_distortion(assignment, q)
    # A valid q-subset that achieves the reported count.
    chosen = result.byzantine_workers
    assert len(set(chosen)) == q and all(0 <= w < K for w in chosen)
    assert distorted_files(assignment, chosen).size == result.c_max
    assert result.epsilon == result.c_max / assignment.num_files
    # No drawn q-set beats it.
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    for _ in range(20):
        subset = rng.choice(K, size=q, replace=False)
        assert distorted_files(assignment, subset).size <= result.c_max
    # Claim 1's bound, wherever it is defined (odd r >= 3).
    if not math.isnan(result.gamma):
        assert result.c_max <= result.gamma + 1e-9
    # The itertools enumeration agrees, set and all.
    assert (result.c_max, chosen) == reference_exhaustive(assignment, q)


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
    winners, counts, _, _ = majority_vote_votetensor(tensor_of(np.array(votes)[None]))
    if winner_count > num_votes - winner_count:
        assert np.array_equal(winners.densified()[0], winner)
        assert counts[0] == winner_count
