"""Tests for the gradient-compression extension (future-work direction)."""

import numpy as np
import pytest

from repro.compression import SignCompressor, TopKCompressor
from repro.compression.compressors import available_compressors
from repro.exceptions import ConfigurationError


def gradient(seed=0, dim=256):
    return np.random.default_rng(seed).standard_normal(dim)


def compress_row(compressor, row):
    """``row`` through the round path, as a matrix of one file."""
    return compressor.compress_matrix(row[None])[0]


def test_empty_gradient_rejected():
    with pytest.raises(ConfigurationError):
        SignCompressor().compress_matrix(np.zeros((1, 0)))


def test_sign_compressor_properties():
    g = gradient()
    out = compress_row(SignCompressor(), g)
    # Reconstruction has the right signs and a single magnitude.
    assert np.array_equal(np.sign(out), np.sign(g))
    magnitudes = np.unique(np.abs(out))
    assert magnitudes.size == 1
    assert magnitudes[0] == pytest.approx(np.abs(g).mean())


def test_topk_keeps_largest_coordinates():
    g = np.array([0.1, -5.0, 0.2, 3.0, -0.05])
    out = compress_row(TopKCompressor(fraction=0.4), g)
    assert np.count_nonzero(out) == 2
    assert out[1] == -5.0 and out[3] == 3.0


def test_topk_fraction_validation():
    with pytest.raises(ConfigurationError):
        TopKCompressor(fraction=0.0)
    with pytest.raises(ConfigurationError):
        TopKCompressor(fraction=1.5)


def test_topk_always_keeps_at_least_one():
    out = compress_row(TopKCompressor(fraction=0.001), gradient(dim=10))
    assert np.count_nonzero(out) == 1


def test_registry_holds_the_compressors_the_catalog_reaches():
    assert available_compressors() == ["sign", "topk"]
