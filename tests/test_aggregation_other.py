"""Tests for geometric median, signSGD and the per-file majority vote."""

import numpy as np
import pytest

from repro.aggregation.geometric_median import GeometricMedianAggregator, geometric_median
from repro.aggregation.majority import majority_vote_votetensor
from repro.aggregation.sign_sgd import SignSGDMajorityAggregator
from repro.exceptions import AggregationError

from cow_helpers import tensor_of


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


# --------------------------------------------------------------------------- #
# signSGD
# --------------------------------------------------------------------------- #
def test_signsgd_majority_of_signs():
    votes = np.array([[1.0, -2.0, 0.5], [2.0, -1.0, -0.5], [-3.0, -5.0, 1.0]])
    result = SignSGDMajorityAggregator()(votes)
    assert np.allclose(result, [1.0, -1.0, 1.0])


def test_signsgd_tied_signs_give_zero():
    votes = np.array([[1.0], [-1.0]])
    assert SignSGDMajorityAggregator()(votes)[0] == 0.0


# --------------------------------------------------------------------------- #
# Majority vote
# --------------------------------------------------------------------------- #
def majority_vote(votes, block_size=None):
    """Vote one file's copies: ``(winner, count)`` of an ``(r, d)`` stack."""
    winners, counts, _, _ = majority_vote_votetensor(
        tensor_of(np.asarray(votes)[None]), block_size=block_size
    )
    return winners.densified()[0], int(counts[0])


def test_majority_vote_exact_equality():
    good = np.array([1.0, 2.0, 3.0])
    bad = np.array([-9.0, -9.0, -9.0])
    winner, count = majority_vote([good, bad, good])
    assert np.array_equal(winner, good)
    assert count == 2


def test_majority_vote_all_different_abstains():
    """Three different copies: no class holds r' = 2 of them, so the file
    has no winner — there is no first-slot tie-break."""
    votes = [np.array([float(i)]) for i in range(3)]
    winners, counts, _, refs = majority_vote_votetensor(tensor_of(np.asarray(votes)[None]))
    assert counts.tolist() == [0]
    assert winners.shape == (0, 1) and refs.shape == (0, 2)


def test_majority_vote_byzantine_majority_wins():
    good = np.zeros(3)
    bad = np.ones(3)
    winner, count = majority_vote([bad, good, bad])
    assert np.array_equal(winner, bad)
    assert count == 2


def test_majority_vote_jittered_copies_are_different_votes():
    """Exact content only: a copy one ulp away is a vote of its own."""
    base = np.array([1.0, 1.0])
    jitter = np.nextafter(base, 2.0)
    winner, count = majority_vote([jitter, base, base])
    assert count == 2
    assert winner.tobytes() == base.tobytes()


def test_majority_vote_validation(mols_assignment):
    from repro.core.pipelines import AggregationPipeline

    for block_size in (0, -3):
        with pytest.raises(AggregationError, match="block_size"):
            majority_vote([np.zeros(3)], block_size=block_size)
        with pytest.raises(AggregationError, match="block_size"):
            AggregationPipeline(mols_assignment, block_size=block_size)
