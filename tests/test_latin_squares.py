"""Tests for repro.fields.latin_squares, including the paper's Table 1."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.fields.latin_squares import (
    LatinSquare,
    are_orthogonal,
    is_latin_square,
    mols_family,
)


def test_is_latin_square_detects_valid_and_invalid():
    valid = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert is_latin_square(valid)
    invalid = np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    assert not is_latin_square(invalid)
    assert not is_latin_square(np.zeros((2, 3)))


def test_latin_square_constructor_validates():
    with pytest.raises(ConfigurationError):
        LatinSquare(np.array([[0, 0], [1, 1]]))


def test_from_linear_matches_paper_table1():
    # Table 1 of the paper: L1, L2, L3 of degree 5 with L_alpha(i,j) = alpha*i + j.
    l1 = LatinSquare.from_linear(5, 1)
    l2 = LatinSquare.from_linear(5, 2)
    l3 = LatinSquare.from_linear(5, 3)
    expected_l1 = np.array(
        [[0, 1, 2, 3, 4], [1, 2, 3, 4, 0], [2, 3, 4, 0, 1], [3, 4, 0, 1, 2], [4, 0, 1, 2, 3]]
    )
    expected_l2 = np.array(
        [[0, 1, 2, 3, 4], [2, 3, 4, 0, 1], [4, 0, 1, 2, 3], [1, 2, 3, 4, 0], [3, 4, 0, 1, 2]]
    )
    expected_l3 = np.array(
        [[0, 1, 2, 3, 4], [3, 4, 0, 1, 2], [1, 2, 3, 4, 0], [4, 0, 1, 2, 3], [2, 3, 4, 0, 1]]
    )
    assert np.array_equal(l1.grid, expected_l1)
    assert np.array_equal(l2.grid, expected_l2)
    assert np.array_equal(l3.grid, expected_l3)


def test_from_linear_requires_prime_and_nonzero_alpha():
    with pytest.raises(ConfigurationError):
        LatinSquare.from_linear(6, 1)
    with pytest.raises(ConfigurationError):
        LatinSquare.from_linear(5, 0)
    with pytest.raises(ConfigurationError):
        LatinSquare.from_linear(5, 5)  # alpha reduces to zero mod 5


@pytest.mark.parametrize("l", [1, 4, 9, 15, 25])
def test_from_linear_refuses_composite_degree(l):
    """Over Z_l with l composite, alpha*i + j is not a Latin square for every
    non-zero alpha, so the construction takes prime degrees only."""
    with pytest.raises(ConfigurationError, match="must be prime"):
        LatinSquare.from_linear(l, 1)


@pytest.mark.parametrize("l, alpha", [(3, 4), (5, 6), (5, -1), (7, 9), (7, -3), (11, 25)])
def test_from_linear_reduces_alpha_mod_l(l, alpha):
    """alpha is an element of GF(l): any integer stands for its residue."""
    square = LatinSquare.from_linear(l, alpha)
    assert square.alpha == alpha % l
    assert np.array_equal(square.grid, LatinSquare.from_linear(l, alpha % l).grid)
    i, j = np.indices((l, l))
    assert np.array_equal(square.grid, (alpha * i + j) % l)


def test_symbol_cells_count_and_content():
    square = LatinSquare.from_linear(5, 1)
    cells = square.symbol_cells(0)
    assert len(cells) == 5
    for i, j in cells:
        assert square.grid[i, j] == 0
    # From the paper's Example 1: symbol 0 of L1 lies at these cells.
    assert set(cells) == {(0, 0), (1, 4), (2, 3), (3, 2), (4, 1)}


def test_symbol_cells_out_of_range():
    square = LatinSquare.from_linear(5, 1)
    with pytest.raises(ConfigurationError):
        square.symbol_cells(5)


def test_orthogonality_of_linear_family():
    squares = mols_family(5, 4)
    for i in range(len(squares)):
        for j in range(i + 1, len(squares)):
            assert are_orthogonal(squares[i], squares[j])


def test_square_not_orthogonal_with_itself():
    square = LatinSquare.from_linear(5, 1)
    assert not are_orthogonal(square, square)


def test_are_orthogonal_requires_equal_degree():
    with pytest.raises(ConfigurationError):
        are_orthogonal(LatinSquare.from_linear(5, 1), LatinSquare.from_linear(7, 1))


def test_mols_family_limits():
    assert len(mols_family(7, 6)) == 6
    with pytest.raises(ConfigurationError):
        mols_family(5, 5)  # at most l-1 = 4
    with pytest.raises(ConfigurationError):
        mols_family(4, 2)  # degree must be prime in this construction


def test_degree_property():
    assert LatinSquare.from_linear(7, 2).degree == 7
