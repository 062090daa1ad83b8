"""Tests for repro.utils.arrays."""

import numpy as np
import pytest

from repro.utils.arrays import pairwise_squared_distances


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
