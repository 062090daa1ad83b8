"""Tests for repro.graphs.expansion — Lemma 1 / Claim 1 bounds."""

import itertools

import numpy as np
import pytest

from repro.core.distortion import distorted_files, max_distortion
from repro.exceptions import ConfigurationError
from repro.graphs.expansion import (
    gamma_upper_bound,
    mols_epsilon_upper_bound,
    neighborhood_lower_bound,
    ramanujan_case2_epsilon_upper_bound,
)
from repro.graphs.spectral import second_eigenvalue


def test_neighborhood_bound_zero_byzantine():
    assert neighborhood_lower_bound(0, 5, 3, 15, 1 / 3) == 0.0


def test_neighborhood_bound_monotone_in_q(mols_assignment):
    mu1 = second_eigenvalue(mols_assignment)
    values = [
        neighborhood_lower_bound(q, 5, 3, 15, mu1) for q in range(1, 8)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_neighborhood_bound_is_valid_lower_bound(mols_assignment):
    """|N(S)| >= beta for every actual Byzantine set (Lemma 1 / Eq. (5))."""
    mu1 = second_eigenvalue(mols_assignment)
    for q in (2, 3):
        beta = neighborhood_lower_bound(q, 5, 3, 15, mu1)
        for subset in itertools.combinations(range(15), q):
            neighborhood = np.count_nonzero(mols_assignment.file_copy_counts(subset))
            assert neighborhood >= beta - 1e-9


def test_neighborhood_bound_validates_mu1():
    with pytest.raises(ConfigurationError):
        neighborhood_lower_bound(2, 5, 3, 15, 1.5)
    with pytest.raises(ConfigurationError):
        neighborhood_lower_bound(-1, 5, 3, 15, 0.3)


def test_gamma_matches_paper_table3_values():
    expected = {2: 2.11, 3: 4.29, 4: 6.96, 5: 10.0, 6: 13.33, 7: 16.9}
    for q, gamma in expected.items():
        assert gamma_upper_bound(q, 5, 3, 15, 1 / 3) == pytest.approx(gamma, abs=0.01)


def test_gamma_matches_paper_table4_values():
    expected = {3: 2.43, 6: 7.35, 9: 13.28, 12: 19.73}
    for q, gamma in expected.items():
        assert gamma_upper_bound(q, 5, 5, 25, 1 / 5) == pytest.approx(gamma, abs=0.01)


def test_gamma_requires_odd_replication():
    with pytest.raises(ConfigurationError):
        gamma_upper_bound(2, 5, 4, 20, 0.25)
    with pytest.raises(ConfigurationError):
        gamma_upper_bound(2, 5, 1, 5, 0.5)


def test_gamma_zero_byzantine():
    assert gamma_upper_bound(0, 5, 3, 15, 1 / 3) == 0.0


def test_gamma_is_an_upper_bound_on_actual_distortion(mols_assignment):
    mu1 = second_eigenvalue(mols_assignment)
    for q in (2, 3, 4):
        gamma = gamma_upper_bound(q, 5, 3, 15, mu1)
        worst = max(
            distorted_files(mols_assignment, subset).size
            for subset in itertools.combinations(range(15), q)
        )
        assert worst <= gamma + 1e-9


def test_gamma_over_f_uses_graph_mu1(mols_assignment):
    """The search's γ, from the graph's own µ₁, over f is Table 3's γ / f."""
    result = max_distortion(mols_assignment, 3)
    assert result.gamma / mols_assignment.num_files == pytest.approx(4.29 / 25, abs=0.001)
    explicit = gamma_upper_bound(3, 5, 3, 15, 1 / 3)
    assert result.gamma == pytest.approx(explicit, abs=1e-9)


def test_closed_form_mols_bound_equals_gamma_over_f():
    for q in range(1, 8):
        closed = mols_epsilon_upper_bound(q, l=5, r=3)
        gamma = gamma_upper_bound(q, 5, 3, 15, 1 / 3)
        assert closed == pytest.approx(gamma / 25, rel=1e-9)


def test_closed_form_ramanujan2_bound_equals_gamma_over_f():
    for q in range(1, 13):
        closed = ramanujan_case2_epsilon_upper_bound(q, r=5)
        gamma = gamma_upper_bound(q, 5, 5, 25, 1 / 5)
        assert closed == pytest.approx(gamma / 25, rel=1e-9)


def test_closed_form_bounds_zero_and_negative_q():
    assert mols_epsilon_upper_bound(0, 5, 3) == 0.0
    assert ramanujan_case2_epsilon_upper_bound(0, 5) == 0.0
    with pytest.raises(ConfigurationError):
        mols_epsilon_upper_bound(-1, 5, 3)
    with pytest.raises(ConfigurationError):
        ramanujan_case2_epsilon_upper_bound(-2, 5)
