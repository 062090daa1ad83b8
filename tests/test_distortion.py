"""Tests for repro.core.distortion — worst-case distortion versus paper tables."""

import tracemalloc

import pytest

from repro.core.distortion import (
    claim2_exact_c_max,
    count_distorted,
    distorted_files,
    distortion_comparison_table,
    epsilon_hat,
    majority_threshold,
    max_distortion,
    max_distortion_exhaustive,
    max_distortion_greedy,
    max_distortion_local_search,
)
from repro.exceptions import ConfigurationError
from repro.experiments.paper_reference import TABLE3, TABLE4


# --------------------------------------------------------------------------- #
# Basic pieces
# --------------------------------------------------------------------------- #
def test_majority_threshold():
    assert majority_threshold(1) == 1
    assert majority_threshold(3) == 2
    assert majority_threshold(5) == 3
    with pytest.raises(ConfigurationError):
        majority_threshold(4)
    with pytest.raises(ConfigurationError):
        majority_threshold(0)


def test_distorted_files_simple_cases(mols_assignment):
    # No Byzantines: nothing is distorted.
    assert distorted_files(mols_assignment, []).size == 0
    # One Byzantine cannot reach the threshold r' = 2.
    assert count_distorted(mols_assignment, [0]) == 0
    # Workers 0 and 5 share exactly one file (file 0 per Table 2).
    assert list(distorted_files(mols_assignment, [0, 5])) == [0]
    assert epsilon_hat(mols_assignment, [0, 5]) == pytest.approx(1 / 25)


def test_distorted_files_full_control(mols_assignment):
    # All workers Byzantine: everything is distorted.
    assert count_distorted(mols_assignment, range(15)) == 25


# --------------------------------------------------------------------------- #
# Exhaustive search versus the paper's Table 3 (MOLS l=5, r=3)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("q", sorted(TABLE3))
def test_exhaustive_matches_paper_table3(mols_assignment, q):
    expected_c_max, expected_eps, _, _, expected_gamma = TABLE3[q]
    result = max_distortion_exhaustive(mols_assignment, q)
    assert result.c_max == expected_c_max
    assert result.epsilon == pytest.approx(expected_eps, abs=0.005)
    assert result.gamma == pytest.approx(expected_gamma, abs=0.01)
    assert result.exact is True
    # The returned Byzantine set actually achieves c_max.
    assert count_distorted(mols_assignment, result.byzantine_workers) == result.c_max


@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_exhaustive_matches_paper_table4(ramanujan_case2, q):
    expected_c_max = TABLE4[q][0]
    result = max_distortion_exhaustive(ramanujan_case2.assignment, q)
    assert result.c_max == expected_c_max


def test_exhaustive_zero_byzantine(mols_assignment):
    result = max_distortion_exhaustive(mols_assignment, 0)
    assert result.c_max == 0
    assert result.byzantine_workers == ()


def test_exhaustive_result_and_scratch_do_not_depend_on_the_chunk(ramanujan_case2):
    """Any chunking finds the first optimal set in enumeration order, and the
    default chunk keeps the search's scratch small whatever ``q`` is (one
    chunk over all C(25, 4) sets took 8.5 MiB and made a q = 4 campaign cell
    peak 3.8 MiB above a q = 3 one)."""
    assignment = ramanujan_case2.assignment
    assert assignment.num_workers == 25
    whole = max_distortion_exhaustive(assignment, 4, chunk_size=10**6)
    for chunk_size in (3, 1000):
        assert max_distortion_exhaustive(assignment, 4, chunk_size=chunk_size) == whole

    tracemalloc.start()
    try:
        assert max_distortion_exhaustive(assignment, 4) == whole
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20


def test_q_out_of_range(mols_assignment):
    with pytest.raises(ConfigurationError):
        max_distortion(mols_assignment, -1)
    with pytest.raises(ConfigurationError):
        max_distortion(mols_assignment, 16)


# --------------------------------------------------------------------------- #
# Heuristics agree with the exhaustive optimum on the paper's instances
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_local_search_matches_exhaustive(mols_assignment, q):
    exact = max_distortion_exhaustive(mols_assignment, q)
    heuristic = max_distortion_local_search(mols_assignment, q, seed=0)
    assert heuristic.c_max == exact.c_max


def test_greedy_is_a_lower_bound(mols_assignment):
    for q in (2, 3, 4, 5, 6):
        exact = max_distortion_exhaustive(mols_assignment, q)
        greedy = max_distortion_greedy(mols_assignment, q)
        assert greedy.c_max <= exact.c_max
        assert count_distorted(mols_assignment, greedy.byzantine_workers) == greedy.c_max


def test_local_search_zero_byzantine(mols_assignment):
    assert max_distortion_local_search(mols_assignment, 0).c_max == 0


# --------------------------------------------------------------------------- #
# Dispatcher
# --------------------------------------------------------------------------- #
def test_auto_uses_exhaustive_for_small_spaces(mols_assignment):
    result = max_distortion(mols_assignment, 3, method="auto")
    assert result.method == "exhaustive"
    assert result.exact


def test_auto_falls_back_to_heuristic(mols_assignment):
    result = max_distortion(mols_assignment, 7, method="auto", exhaustive_limit=10)
    assert result.method == "local_search"
    assert not result.exact
    # Still matches the known optimum for this instance.
    assert result.c_max == TABLE3[7][0]


def test_explicit_methods(mols_assignment):
    assert max_distortion(mols_assignment, 3, method="greedy").method == "greedy"
    assert max_distortion(mols_assignment, 3, method="exhaustive").method == "exhaustive"
    assert (
        max_distortion(mols_assignment, 3, method="local_search").method == "local_search"
    )
    with pytest.raises(ConfigurationError):
        max_distortion(mols_assignment, 3, method="quantum")


# --------------------------------------------------------------------------- #
# Claim 2 exact values
# --------------------------------------------------------------------------- #
def test_claim2_r3():
    assert claim2_exact_c_max(0, 3) == 0
    assert claim2_exact_c_max(1, 3) == 0
    assert claim2_exact_c_max(2, 3) == 1
    assert claim2_exact_c_max(3, 3) == 3


def test_claim2_r5():
    assert claim2_exact_c_max(2, 5) == 0
    assert claim2_exact_c_max(3, 5) == 1
    assert claim2_exact_c_max(4, 5) == 1
    assert claim2_exact_c_max(5, 5) == 2


def test_claim2_validation():
    with pytest.raises(ConfigurationError):
        claim2_exact_c_max(4, 3)  # q > r
    with pytest.raises(ConfigurationError):
        claim2_exact_c_max(2, 4)  # even r
    with pytest.raises(ConfigurationError):
        claim2_exact_c_max(-1, 3)


def test_claim2_matches_simulation_mols(mols_assignment):
    for q in range(0, 4):
        assert (
            max_distortion_exhaustive(mols_assignment, q).c_max
            == claim2_exact_c_max(q, 3)
        )


def test_claim2_matches_simulation_ramanujan_case2(ramanujan_case2):
    for q in range(0, 6):
        assert (
            max_distortion_exhaustive(ramanujan_case2.assignment, q).c_max
            == claim2_exact_c_max(q, 5)
        )


# --------------------------------------------------------------------------- #
# Comparison table
# --------------------------------------------------------------------------- #
def test_distortion_comparison_table_layout(mols_assignment):
    rows = distortion_comparison_table(mols_assignment, [2, 3])
    assert [row["q"] for row in rows] == [2, 3]
    for row in rows:
        for column in (
            "c_max",
            "epsilon_byzshield",
            "epsilon_baseline",
            "epsilon_frc",
            "gamma",
            "exact",
        ):
            assert column in row
    assert rows[0]["epsilon_baseline"] == pytest.approx(2 / 15)
    assert rows[0]["epsilon_frc"] == pytest.approx(0.2)
