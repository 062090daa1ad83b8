"""Tests for repro.utils.arrays."""

import numpy as np
import pytest

from repro.utils.arrays import pairwise_squared_distances, stack_vectors


def test_stack_vectors_shapes():
    stacked = stack_vectors([np.zeros(4), np.ones(4), 2 * np.ones(4)])
    assert stacked.shape == (3, 4)
    assert np.allclose(stacked[2], 2.0)


def test_stack_vectors_dimension_mismatch():
    with pytest.raises(ValueError):
        stack_vectors([np.zeros(3), np.zeros(4)])


def test_stack_vectors_empty():
    with pytest.raises(ValueError):
        stack_vectors([])


def test_pairwise_squared_distances_matches_naive():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 5))
    fast = pairwise_squared_distances(X)
    naive = np.array(
        [[np.sum((X[i] - X[j]) ** 2) for j in range(6)] for i in range(6)]
    )
    assert np.allclose(fast, naive, atol=1e-10)
    assert np.all(np.diag(fast) == 0.0)
    assert np.all(fast >= 0.0)


def test_pairwise_squared_distances_requires_matrix():
    with pytest.raises(ValueError):
        pairwise_squared_distances(np.zeros(5))
