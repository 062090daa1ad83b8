"""Tests for repro.core.distortion — worst-case distortion versus paper tables."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from repro.assignment.random_scheme import RandomAssignment
from repro.assignment.registry import available_schemes, create_scheme
from repro.core import distortion
from repro.core.distortion import (
    claim2_exact_c_max,
    distorted_files,
    distortion_comparison_table,
    majority_threshold,
    max_distortion,
)
from repro.exceptions import ConfigurationError
from repro.experiments.paper_reference import TABLE3, TABLE4
from repro.graphs.bipartite import BipartiteAssignment


# --------------------------------------------------------------------------- #
# Basic pieces
# --------------------------------------------------------------------------- #
def test_majority_threshold():
    assert majority_threshold(1) == 1
    assert majority_threshold(3) == 2
    assert majority_threshold(5) == 3
    # even r: the strict majority the vote applies
    assert majority_threshold(4) == 3
    assert majority_threshold(2) == 2
    with pytest.raises(ConfigurationError):
        majority_threshold(0)


def test_distorted_files_simple_cases(mols_assignment):
    # No Byzantines: nothing is distorted.
    assert distorted_files(mols_assignment, []).size == 0
    # One Byzantine cannot reach the threshold r' = 2.
    assert distorted_files(mols_assignment, [0]).size == 0
    # Workers 0 and 5 share exactly one file (file 0 per Table 2).
    assert list(distorted_files(mols_assignment, [0, 5])) == [0]


def test_distorted_files_full_control(mols_assignment):
    # All workers Byzantine: everything is distorted.
    assert distorted_files(mols_assignment, range(15)).size == 25


# --------------------------------------------------------------------------- #
# Exhaustive search versus the paper's Table 3 (MOLS l=5, r=3)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("q", sorted(TABLE3))
def test_exhaustive_matches_paper_table3(mols_assignment, q):
    expected_c_max, expected_eps, _, _, expected_gamma = TABLE3[q]
    result = max_distortion(mols_assignment, q)
    assert result.c_max == expected_c_max
    assert result.epsilon == pytest.approx(expected_eps, abs=0.005)
    assert result.gamma == pytest.approx(expected_gamma, abs=0.01)
    # The returned Byzantine set actually achieves c_max.
    assert distorted_files(mols_assignment, result.byzantine_workers).size == result.c_max


@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_exhaustive_matches_paper_table4(ramanujan_case2, q):
    expected_c_max = TABLE4[q][0]
    result = max_distortion(ramanujan_case2.assignment, q)
    assert result.c_max == expected_c_max


def test_exhaustive_zero_byzantine(mols_assignment):
    result = max_distortion(mols_assignment, 0)
    assert result.c_max == 0
    assert result.byzantine_workers == ()


def test_exhaustive_all_workers_byzantine(mols_assignment):
    result = max_distortion(mols_assignment, 15)
    assert result.c_max == 25
    assert result.byzantine_workers == tuple(range(15))
    assert result.epsilon == 1.0


def test_exhaustive_k25_q9_set_of_the_figures(ramanujan_case2):
    """The 'ByzShield, q=9' curves of Figs. 6–8 attack this set: the
    lexicographically first of the K=25, q=9 maximisers, C(25, 9) sets."""
    result = max_distortion(ramanujan_case2.assignment, 9)
    assert result.c_max == 9
    assert result.byzantine_workers == (0, 1, 2, 5, 6, 12, 13, 15, 21)


def test_search_takes_no_heuristic_knobs(mols_assignment):
    """One exact search: no method switch, and no method/exact fields."""
    with pytest.raises(TypeError):
        max_distortion(mols_assignment, 3, method="local_search")
    result = max_distortion(mols_assignment, 3)
    assert not hasattr(result, "method")
    assert not hasattr(result, "exact")


# --------------------------------------------------------------------------- #
# The vectorised search against the itertools enumeration it replaced
# --------------------------------------------------------------------------- #
def reference_exhaustive(assignment, q):
    """``(c_max, byzantine_workers)`` by the enumeration the prefix-tree search
    replaced: ``itertools.combinations`` in 2048-set chunks, each scored as a
    gather of the bi-adjacency rows, the first argmax of a chunk kept only if
    strictly better than every earlier chunk's."""
    H = assignment.biadjacency.astype(np.int32)
    threshold = majority_threshold(assignment.replication)
    best_count, best_set = -1, ()
    combo_iter = itertools.combinations(range(assignment.num_workers), q)
    while chunk := list(itertools.islice(combo_iter, 2048)):
        idx = np.asarray(chunk, dtype=np.int64)
        corrupted = (H[idx].sum(axis=1) >= threshold).sum(axis=1)
        arg = int(np.argmax(corrupted))
        if int(corrupted[arg]) > best_count:
            best_count = int(corrupted[arg])
            best_set = tuple(int(w) for w in idx[arg])
    return best_count, best_set


def assert_matches_reference(assignment, max_sets=50_000):
    K = assignment.num_workers
    for q in range(1, K + 1):
        if math.comb(K, q) <= max_sets:
            result = max_distortion(assignment, q)
            assert (result.c_max, result.byzantine_workers) == reference_exhaustive(
                assignment, q
            ), f"{assignment.name} q={q}"


SMALL_SCHEMES = {
    "mols": {"load": 5, "replication": 3},
    "ramanujan": {"m": 3, "s": 5},
    "frc": {"num_workers": 15, "replication": 3},
    "baseline": {"num_workers": 10},
    "random": {"num_workers": 15, "num_files": 25, "replication": 3},
}


def test_small_schemes_cover_the_registry():
    assert set(SMALL_SCHEMES) == set(available_schemes())


@pytest.mark.parametrize("scheme", sorted(SMALL_SCHEMES))
def test_exhaustive_equals_reference_on_every_scheme(scheme):
    assert_matches_reference(create_scheme(scheme, **SMALL_SCHEMES[scheme]).assignment)


def test_exhaustive_equals_reference_on_the_k25_graph(ramanujan_case2):
    assert_matches_reference(ramanujan_case2.assignment)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_exhaustive_equals_reference_on_random_graphs(seed):
    scheme = RandomAssignment(num_workers=12, num_files=20, replication=3, seed=seed)
    assert_matches_reference(scheme.assignment)


def test_exhaustive_equals_reference_across_several_words():
    """f > 64: each worker's files span ⌈f/64⌉ = 3 uint64 words (seven random
    12-worker graphs side by side, f = 140)."""
    parts = [
        RandomAssignment(num_workers=12, num_files=20, replication=3, seed=seed).assignment
        for seed in range(7)
    ]
    assignment = BipartiteAssignment(np.hstack([part.biadjacency for part in parts]))
    assert assignment.num_files == 140
    assert_matches_reference(assignment)


@pytest.mark.parametrize("scratch_bytes", [None, 1])
def test_exhaustive_returns_the_lexicographically_first_maximiser(
    ramanujan_case2, monkeypatch, scratch_bytes
):
    """Ties are broken towards the lexicographically first set, within a block
    and across blocks; a one-byte budget makes every q-set its own block."""
    if scratch_bytes is not None:
        monkeypatch.setattr(distortion, "_SCRATCH_BYTES", scratch_bytes)
    assignment = ramanujan_case2.assignment
    result = max_distortion(assignment, 4)
    maximisers = [
        combo
        for combo in itertools.combinations(range(assignment.num_workers), 4)
        if distorted_files(assignment, combo).size == result.c_max
    ]
    assert len(maximisers) > 100
    assert result.byzantine_workers == maximisers[0]
    assert (result.c_max, result.byzantine_workers) == reference_exhaustive(assignment, 4)


@pytest.mark.parametrize(
    "scheme, params, q",
    [
        ("ramanujan", {"m": 5, "s": 5}, 4),
        ("ramanujan", {"m": 5, "s": 5}, 5),
        ("mols", {"load": 7, "replication": 5}, 6),
    ],
)
def test_exhaustive_scratch_stays_under_two_mib(scheme, params, q):
    """The block budget bounds the search's scratch whatever ``(K, q)`` is (one
    unchunked pass over all C(25, 4) sets took 8.5 MiB and made a q = 4
    campaign cell peak 3.8 MiB above a q = 3 one).  The last level builds
    only the counter plane it reads: 0.47 / 0.49 / 0.54 MiB measured on
    these three, bounded at 0.6 MiB; 0.72 / 0.74 / 0.81 MiB while it built
    all ``r'`` planes."""
    assignment = create_scheme(scheme, **params).assignment
    tracemalloc.start()
    try:
        max_distortion(assignment, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * (1 << 20), peak / (1 << 20)


def test_q_out_of_range(mols_assignment):
    with pytest.raises(ConfigurationError):
        max_distortion(mols_assignment, -1)
    with pytest.raises(ConfigurationError):
        max_distortion(mols_assignment, 16)


def test_search_limit_is_table5s_last_row():
    assert distortion.MAX_SEARCH_SETS == math.comb(35, 13)


def test_over_limit_search_names_its_size(monkeypatch):
    """Above the limit the search refuses before scoring anything, and the
    message names K, q, C(K, q) and the limit."""
    assignment = create_scheme("mols", load=7, replication=5).assignment
    with pytest.raises(ConfigurationError) as excinfo:
        max_distortion(assignment, 14)
    message = str(excinfo.value)
    assert "K=35, q=14" in message
    assert f"{math.comb(35, 14):,}" in message
    assert f"{math.comb(35, 13):,}" in message
    # the limit itself is allowed, one set more is not
    table3 = create_scheme("mols", load=5, replication=3).assignment
    monkeypatch.setattr(distortion, "MAX_SEARCH_SETS", math.comb(15, 2))
    assert max_distortion(table3, 2).c_max == 1
    with pytest.raises(ConfigurationError, match=r"C\(15, 3\) = 455 sets"):
        max_distortion(table3, 3)


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
            max_distortion(mols_assignment, q).c_max
            == claim2_exact_c_max(q, 3)
        )


def test_claim2_matches_simulation_ramanujan_case2(ramanujan_case2):
    for q in range(0, 6):
        assert (
            max_distortion(ramanujan_case2.assignment, q).c_max
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
        ):
            assert column in row
    assert rows[0]["epsilon_baseline"] == pytest.approx(2 / 15)
    assert rows[0]["epsilon_frc"] == pytest.approx(0.2)
