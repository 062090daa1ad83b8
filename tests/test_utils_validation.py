"""Tests for repro.utils.validation."""

import pytest

from repro.exceptions import ConfigurationError
from repro.utils.validation import (
    check_odd,
    check_positive_int,
    check_prime,
    is_prime,
)


def test_check_positive_int_accepts_positive():
    assert check_positive_int(3, "x") == 3


@pytest.mark.parametrize("bad", [0, -1, 1.5, True, "3"])
def test_check_positive_int_rejects(bad):
    with pytest.raises(ConfigurationError):
        check_positive_int(bad, "x")


def test_check_odd():
    assert check_odd(3, "r") == 3
    with pytest.raises(ConfigurationError):
        check_odd(4, "r")


@pytest.mark.parametrize(
    "n,expected",
    [
        (0, False),
        (1, False),
        (2, True),
        (3, True),
        (4, False),
        (5, True),
        (7, True),
        (9, False),
        (25, False),
        (97, True),
        (121, False),
        (7919, True),
    ],
)
def test_is_prime(n, expected):
    assert is_prime(n) is expected


def test_check_prime():
    assert check_prime(7, "l") == 7
    with pytest.raises(ConfigurationError):
        check_prime(8, "l")

