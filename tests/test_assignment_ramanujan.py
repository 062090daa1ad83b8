"""Tests for the Ramanujan-bigraph assignment scheme."""

import numpy as np
import pytest

from repro.assignment.ramanujan import (
    RamanujanAssignment,
    cyclic_shift_matrix,
    ramanujan_biadjacency,
)
from repro.exceptions import ConfigurationError


def test_cyclic_shift_matrix_is_permutation():
    P = cyclic_shift_matrix(5)
    assert P.shape == (5, 5)
    assert np.all(P.sum(axis=0) == 1)
    assert np.all(P.sum(axis=1) == 1)
    # P^s is the identity.
    assert np.array_equal(np.linalg.matrix_power(P.astype(int), 5), np.eye(5, dtype=int))


def test_biadjacency_block_structure():
    m, s = 3, 5
    B = ramanujan_biadjacency(m, s)
    assert B.shape == (s * s, m * s)
    # First block row consists of identity blocks.
    for b in range(m):
        block = B[:s, b * s : (b + 1) * s]
        assert np.array_equal(block, np.eye(s, dtype=np.int8))
    # Block (a, b) equals P^(a*b).
    P = cyclic_shift_matrix(s).astype(int)
    for a in range(s):
        for b in range(m):
            block = B[a * s : (a + 1) * s, b * s : (b + 1) * s]
            assert np.array_equal(block, np.linalg.matrix_power(P, a * b) % 2)


def test_case1_parameters(ramanujan_case1):
    params = ramanujan_case1.expected_parameters
    assignment = ramanujan_case1.assignment
    assert ramanujan_case1.case == 1
    assert assignment.num_workers == params["num_workers"] == 15
    assert assignment.num_files == params["num_files"] == 25
    assert assignment.computational_load == params["load"] == 5
    assert assignment.replication == params["replication"] == 3


def test_case2_parameters(ramanujan_case2):
    params = ramanujan_case2.expected_parameters
    assignment = ramanujan_case2.assignment
    assert ramanujan_case2.case == 2
    assert assignment.num_workers == params["num_workers"] == 25
    assert assignment.num_files == params["num_files"] == 25
    assert assignment.computational_load == params["load"] == 5
    assert assignment.replication == params["replication"] == 5


def test_case2_larger_m():
    scheme = RamanujanAssignment(m=10, s=5)
    assignment = scheme.assignment
    assert scheme.case == 2
    assert assignment.num_workers == 25
    assert assignment.num_files == 50
    assert assignment.computational_load == 10
    assert assignment.replication == 5


def test_invalid_parameters():
    with pytest.raises(ConfigurationError):
        RamanujanAssignment(m=1, s=5)  # m must be >= 2
    with pytest.raises(ConfigurationError):
        RamanujanAssignment(m=3, s=4)  # s must be prime


@pytest.mark.parametrize(
    "m, s, expected",
    [(2, 5, (10, 25, 5, 2)), (4, 5, (20, 25, 5, 4)), (5, 2, (4, 10, 5, 2))],
    ids=["case1-r2", "case1-r4", "case2-r2"],
)
def test_even_replication_builds(m, s, expected):
    """The graph has no vote: an even r (m in Case 1, s in Case 2) builds
    with Eq. (6)'s (K, f, l, r); the runner's check refuses it for a run."""
    a = RamanujanAssignment(m=m, s=s).assignment
    assert (a.num_workers, a.num_files, a.computational_load, a.replication) == expected


def test_biadjacency_validates_inputs():
    with pytest.raises(ConfigurationError):
        ramanujan_biadjacency(1, 5)
    with pytest.raises(ConfigurationError):
        ramanujan_biadjacency(3, 6)


def test_case1_and_mols_have_same_degree_profile(ramanujan_case1, mols_assignment):
    ram = ramanujan_case1.assignment
    assert ram.num_workers == mols_assignment.num_workers
    assert ram.num_files == mols_assignment.num_files
    assert ram.computational_load == mols_assignment.computational_load
    assert ram.replication == mols_assignment.replication
