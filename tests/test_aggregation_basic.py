"""Tests for mean, median, trimmed mean and median-of-means aggregators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.mean import MeanAggregator
from repro.aggregation.median import CoordinateWiseMedian
from repro.aggregation.median_of_means import MedianOfMeansAggregator
from repro.aggregation.trimmed_mean import TrimmedMeanAggregator
from repro.exceptions import AggregationError


def votes_with_outlier(num_honest=8, dim=5, outlier_value=1e6, seed=0):
    rng = np.random.default_rng(seed)
    honest = rng.standard_normal((num_honest, dim))
    outlier = np.full((1, dim), outlier_value)
    return np.vstack([honest, outlier]), honest


def test_mean_is_average():
    votes = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(MeanAggregator()(votes), [2.0, 3.0])


def test_mean_is_not_robust():
    votes, honest = votes_with_outlier()
    result = MeanAggregator()(votes)
    assert np.linalg.norm(result - honest.mean(axis=0)) > 1e3


#: values whose order statistics are delicate: signed zeros, duplicates and
#: the +-1e30 magnitudes Aggregator.__call__ clamps non-finite entries to
_MEDIAN_ALPHABET = (0.0, -0.0, 1.0, 1.0, -1.0, 0.5, 1e30, -1e30, np.inf, -np.inf, np.nan)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    d=st.sampled_from([1, 7, 4097]),
    dtype=st.sampled_from([np.float32, np.float64]),
    alphabet_share=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_median_equals_numpy_byte_for_byte(n, d, dtype, alphabet_share, seed):
    rng = np.random.default_rng(seed)
    votes = rng.standard_normal((n, d))
    from_alphabet = rng.random((n, d)) < alphabet_share
    votes[from_alphabet] = rng.choice(_MEDIAN_ALPHABET, size=int(from_alphabet.sum()))
    votes = votes.astype(dtype)
    clamped = np.nan_to_num(votes, nan=0.0, posinf=1e30, neginf=-1e30)
    expected = np.median(clamped, axis=0)
    before = votes.copy()
    for layout in (votes, np.asfortranarray(votes)):
        result = CoordinateWiseMedian()(layout)
        assert result.dtype == expected.dtype
        assert result.tobytes() == expected.tobytes()
    assert votes.tobytes() == before.tobytes()  # the input is never partitioned in place


def test_median_is_robust_to_single_outlier():
    votes, honest = votes_with_outlier()
    result = CoordinateWiseMedian()(votes)
    assert np.linalg.norm(result - np.median(honest, axis=0)) < 1.0


def test_aggregator_takes_a_matrix_not_a_list_of_vectors():
    vectors = [np.array([1.0, 5.0]), np.array([3.0, 1.0]), np.array([2.0, 3.0])]
    assert np.allclose(CoordinateWiseMedian()(np.stack(vectors)), [2.0, 3.0])
    with pytest.raises(AggregationError, match="got list"):
        CoordinateWiseMedian()(vectors)


def test_aggregator_rejects_bad_shapes():
    with pytest.raises(AggregationError):
        CoordinateWiseMedian()(np.zeros((2, 3, 4)))
    with pytest.raises(AggregationError):
        CoordinateWiseMedian()(np.zeros((0, 3)))


def test_aggregator_handles_non_finite_votes():
    votes = np.array([[1.0, 2.0], [np.nan, np.inf], [1.0, 2.0]])
    result = CoordinateWiseMedian()(votes)
    assert np.all(np.isfinite(result))
    assert np.allclose(result, [1.0, 2.0])


def test_trimmed_mean_removes_extremes():
    votes = np.array([[0.0], [1.0], [2.0], [3.0], [100.0]])
    result = TrimmedMeanAggregator(trim=1)(votes)
    assert result[0] == pytest.approx(2.0)


def test_trimmed_mean_zero_trim_equals_mean():
    rng = np.random.default_rng(2)
    votes = rng.standard_normal((6, 4))
    assert np.allclose(TrimmedMeanAggregator(trim=0)(votes), votes.mean(axis=0))


def test_trimmed_mean_requires_enough_votes():
    with pytest.raises(AggregationError):
        TrimmedMeanAggregator(trim=2)(np.zeros((4, 3)))
    with pytest.raises(AggregationError):
        TrimmedMeanAggregator(trim=-1)
    assert TrimmedMeanAggregator(trim=2).minimum_votes() == 5


def test_trimmed_mean_is_robust():
    votes, honest = votes_with_outlier()
    result = TrimmedMeanAggregator(trim=1)(votes)
    assert np.linalg.norm(result - honest.mean(axis=0)) < 2.0


def test_median_of_means_single_group_is_mean():
    rng = np.random.default_rng(3)
    votes = rng.standard_normal((6, 4))
    assert np.allclose(MedianOfMeansAggregator(num_groups=1)(votes), votes.mean(axis=0))


def test_median_of_means_as_many_groups_as_votes_is_median():
    rng = np.random.default_rng(4)
    votes = rng.standard_normal((5, 4))
    result = MedianOfMeansAggregator(num_groups=5)(votes)
    assert np.allclose(result, np.median(votes, axis=0))


def test_median_of_means_more_groups_than_votes_degrades_gracefully():
    votes = np.array([[1.0], [3.0]])
    result = MedianOfMeansAggregator(num_groups=10)(votes)
    assert result[0] == pytest.approx(2.0)


def test_median_of_means_is_robust_with_enough_groups():
    votes, honest = votes_with_outlier(num_honest=11)
    result = MedianOfMeansAggregator(num_groups=4)(votes)
    assert np.linalg.norm(result - honest.mean(axis=0)) < 3.0
