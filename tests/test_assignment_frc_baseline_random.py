"""Tests for FRC, baseline and random assignment schemes."""

import numpy as np
import pytest

from repro.assignment import random_scheme
from repro.assignment.baseline import BaselineAssignment
from repro.assignment.frc import FRCAssignment
from repro.assignment.random_scheme import RandomAssignment
from repro.core.distortion import max_distortion
from repro.exceptions import AssignmentError, ConfigurationError


# --------------------------------------------------------------------------- #
# FRC
# --------------------------------------------------------------------------- #
def test_frc_structure(frc_15_3):
    assignment = frc_15_3.assignment
    assert assignment.num_workers == 15
    assert assignment.num_files == 5
    assert assignment.computational_load == 1
    assert assignment.replication == 3
    assert frc_15_3.num_groups == 5


def test_frc_groups_are_consecutive(frc_15_3):
    assignment = frc_15_3.assignment
    for group in range(5):
        assert assignment.workers_of_file(group) == (3 * group, 3 * group + 1, 3 * group + 2)
    for worker in range(15):
        assert assignment.files_of_worker(worker) == (worker // 3,)


def test_frc_validation():
    with pytest.raises(ConfigurationError):
        FRCAssignment(num_workers=16, replication=3)  # not divisible
    # the graph has no vote: an even group size builds
    a = FRCAssignment(num_workers=16, replication=4).assignment
    assert (a.num_workers, a.num_files, a.computational_load, a.replication) == (16, 4, 1, 4)


@pytest.mark.parametrize(
    "q,expected",
    [(0, 0.0), (1, 0.0), (2, 0.2), (3, 0.2), (4, 0.4), (5, 0.4), (6, 0.6), (7, 0.6)],
)
def test_frc_worst_case_epsilon_matches_paper_table3(q, expected):
    assert FRCAssignment.worst_case_epsilon(q, 15, 3) == pytest.approx(expected)


def test_frc_worst_case_epsilon_table4_column():
    expected = {3: 0.2, 4: 0.2, 5: 0.2, 6: 0.4, 9: 0.6, 12: 0.8}
    for q, value in expected.items():
        assert FRCAssignment.worst_case_epsilon(q, 25, 5) == pytest.approx(value)


def test_frc_worst_case_epsilon_negative_q():
    with pytest.raises(ConfigurationError):
        FRCAssignment.worst_case_epsilon(-1, 15, 3)


@pytest.mark.parametrize("K, r", [(15, 3), (16, 4), (15, 5)])
def test_frc_worst_case_epsilon_is_the_exact_search(K, r):
    """The closed form uses the vote's r' (3 at r = 4, where (r + 1) // 2
    would say 2 and count two Byzantine copies as deciding a group), and
    never exceeds every file: it is the omniscient search's c_max / f at
    every q <= K."""
    assignment = FRCAssignment(num_workers=K, replication=r).assignment
    for q in range(K + 1):
        c_max = max_distortion(assignment, q).c_max
        assert FRCAssignment.worst_case_epsilon(q, K, r) == c_max / assignment.num_files


# --------------------------------------------------------------------------- #
# Baseline
# --------------------------------------------------------------------------- #
def test_baseline_structure(baseline_10):
    assignment = baseline_10.assignment
    assert assignment.num_workers == 10
    assert assignment.num_files == 10
    assert assignment.computational_load == 1
    assert assignment.replication == 1
    assert np.array_equal(assignment.biadjacency, np.eye(10))


def test_baseline_epsilon():
    assert BaselineAssignment.worst_case_epsilon(3, 25) == pytest.approx(0.12)
    assert BaselineAssignment.worst_case_epsilon(0, 25) == 0.0


# --------------------------------------------------------------------------- #
# Random
# --------------------------------------------------------------------------- #
def test_random_assignment_is_biregular():
    scheme = RandomAssignment(num_workers=15, num_files=25, replication=3, seed=0)
    assignment = scheme.assignment
    assert assignment.num_workers == 15
    assert assignment.num_files == 25
    assert assignment.computational_load == 5
    assert assignment.replication == 3


def test_random_assignment_deterministic_per_seed():
    a = RandomAssignment(15, 25, 3, seed=3).build()
    b = RandomAssignment(15, 25, 3, seed=3).build()
    c = RandomAssignment(15, 25, 3, seed=4).build()
    assert a == b
    assert a != c


def test_random_assignment_validation():
    with pytest.raises(ConfigurationError):
        RandomAssignment(num_workers=15, num_files=24, replication=3)  # K does not divide f*r
    with pytest.raises(ConfigurationError):
        RandomAssignment(num_workers=2, num_files=1, replication=4)  # load > f


def test_random_assignment_load_exceeding_files_rejected():
    # A single worker would have to hold every copy of every file, giving it
    # duplicate copies of the same file; the constructor rejects this upfront.
    with pytest.raises(ConfigurationError):
        RandomAssignment(num_workers=1, num_files=2, replication=2)


def test_random_assignment_gives_up_after_its_attempts(monkeypatch):
    monkeypatch.setattr(random_scheme, "_MAX_ATTEMPTS", 0)
    with pytest.raises(AssignmentError, match="within 0 attempts"):
        RandomAssignment(num_workers=15, num_files=25, replication=3).build()
