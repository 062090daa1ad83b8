"""Tests for geometric median, signSGD, Auror and the per-file majority vote."""

import numpy as np
import pytest

from repro.aggregation.auror import AurorAggregator, two_means_1d
from repro.aggregation.geometric_median import GeometricMedianAggregator, geometric_median
from repro.aggregation.majority import majority_vote_tensor
from repro.aggregation.sign_sgd import SignSGDMajorityAggregator
from repro.exceptions import AggregationError


# --------------------------------------------------------------------------- #
# Geometric median
# --------------------------------------------------------------------------- #
def test_geometric_median_of_symmetric_points_is_center():
    votes = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert np.allclose(geometric_median(votes), [0.0, 0.0], atol=1e-6)


def test_geometric_median_robust_to_outlier():
    rng = np.random.default_rng(0)
    honest = rng.standard_normal((10, 4)) * 0.1
    votes = np.vstack([honest, np.full((1, 4), 1e5)])
    result = GeometricMedianAggregator()(votes)
    assert np.linalg.norm(result) < 1.0


def test_geometric_median_single_point():
    votes = np.array([[3.0, -2.0]])
    assert np.allclose(geometric_median(votes), [3.0, -2.0])


def test_geometric_median_validation():
    with pytest.raises(AggregationError):
        geometric_median(np.zeros((0, 3)))
    with pytest.raises(AggregationError):
        GeometricMedianAggregator(max_iterations=0)


# --------------------------------------------------------------------------- #
# signSGD
# --------------------------------------------------------------------------- #
def test_signsgd_majority_of_signs():
    votes = np.array([[1.0, -2.0, 0.5], [2.0, -1.0, -0.5], [-3.0, -5.0, 1.0]])
    result = SignSGDMajorityAggregator()(votes)
    assert np.allclose(result, [1.0, -1.0, 1.0])


def test_signsgd_scale():
    votes = np.array([[2.0], [3.0]])
    assert SignSGDMajorityAggregator(scale=0.1)(votes)[0] == pytest.approx(0.1)


def test_signsgd_tied_signs_give_zero():
    votes = np.array([[1.0], [-1.0]])
    assert SignSGDMajorityAggregator()(votes)[0] == 0.0


def test_signsgd_invalid_scale():
    with pytest.raises(AggregationError):
        SignSGDMajorityAggregator(scale=0.0)


# --------------------------------------------------------------------------- #
# Auror
# --------------------------------------------------------------------------- #
def test_two_means_1d_separates_clusters():
    values = np.array([0.0, 0.1, -0.1, 10.0, 10.2])
    labels, low, high = two_means_1d(values)
    assert labels.sum() == 2
    assert low == pytest.approx(0.0, abs=0.2)
    assert high == pytest.approx(10.1, abs=0.2)


def test_two_means_1d_constant_values():
    labels, low, high = two_means_1d(np.full(4, 2.5))
    assert low == high == 2.5
    assert labels.sum() == 0


def test_auror_discards_small_far_cluster():
    rng = np.random.default_rng(0)
    honest = rng.standard_normal((9, 3)) * 0.1
    byzantine = np.full((2, 3), 50.0)
    votes = np.vstack([honest, byzantine])
    result = AurorAggregator()(votes)
    assert np.linalg.norm(result - honest.mean(axis=0)) < 1.0


def test_auror_keeps_everything_when_clusters_close():
    votes = np.array([[0.0, 1.0], [0.1, 1.1], [0.2, 0.9], [0.05, 1.05]])
    result = AurorAggregator(distance_threshold=10.0)(votes)
    assert np.allclose(result, votes.mean(axis=0))


def test_auror_invalid_threshold():
    with pytest.raises(AggregationError):
        AurorAggregator(distance_threshold=0.0)


# --------------------------------------------------------------------------- #
# Majority vote
# --------------------------------------------------------------------------- #
def majority_vote(votes, tolerance=0.0):
    """Vote one file's copies: ``(winner, count)`` of an ``(r, d)`` stack."""
    winners, counts = majority_vote_tensor(np.asarray(votes)[None], tolerance)
    return winners[0], int(counts[0])


def test_majority_vote_exact_equality():
    good = np.array([1.0, 2.0, 3.0])
    bad = np.array([-9.0, -9.0, -9.0])
    winner, count = majority_vote([good, bad, good])
    assert np.array_equal(winner, good)
    assert count == 2


def test_majority_vote_all_different_returns_first():
    votes = [np.array([float(i)]) for i in range(3)]
    winner, count = majority_vote(votes)
    assert count == 1
    assert winner[0] == 0.0


def test_majority_vote_byzantine_majority_wins():
    good = np.zeros(3)
    bad = np.ones(3)
    winner, count = majority_vote([bad, good, bad])
    assert np.array_equal(winner, bad)
    assert count == 2


def test_majority_vote_with_tolerance_clusters_jittered_votes():
    base = np.array([1.0, 1.0])
    jitter = base + 1e-9
    outlier = np.array([100.0, 100.0])
    winner, count = majority_vote([base, jitter, outlier], tolerance=1e-6)
    assert count == 2
    assert np.allclose(winner, base, atol=1e-8)


def test_majority_vote_validation(mols_assignment):
    from repro.core.pipelines import ByzShieldPipeline

    with pytest.raises(AggregationError):
        majority_vote(np.zeros((0, 3)))
    with pytest.raises(AggregationError):
        majority_vote([np.zeros(3)], tolerance=-1.0)
    with pytest.raises(AggregationError):
        ByzShieldPipeline(mols_assignment, vote_tolerance=-0.5)
    # NaN passes ``tolerance < 0``; every comparison with it is false.
    with pytest.raises(AggregationError, match="non-negative"):
        majority_vote([np.zeros(3)], tolerance=float("nan"))
    with pytest.raises(AggregationError, match="non-negative"):
        ByzShieldPipeline(mols_assignment, vote_tolerance=float("nan"))
