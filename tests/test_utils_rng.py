"""Tests for repro.utils.rng."""

import numpy as np

from repro.utils.rng import as_generator, derive_seed


def test_as_generator_from_int_is_deterministic():
    a = as_generator(123).integers(0, 1000, size=10)
    b = as_generator(123).integers(0, 1000, size=10)
    assert np.array_equal(a, b)


def test_as_generator_passthrough():
    gen = np.random.default_rng(5)
    assert as_generator(gen) is gen


def test_as_generator_none_gives_generator():
    assert isinstance(as_generator(None), np.random.Generator)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed("x") != derive_seed("y")


def test_derive_seed_in_63_bit_range():
    value = derive_seed("anything", 12345)
    assert 0 <= value < 2**63
