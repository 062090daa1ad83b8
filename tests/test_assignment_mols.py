"""Tests for the MOLS assignment scheme, including the paper's Example 1 / Table 2."""

import itertools

import pytest

from repro.assignment.mols import MOLSAssignment
from repro.exceptions import ConfigurationError

from paper_oracles import workers_of_file


def test_dimensions(mols_5_3, mols_assignment):
    assert mols_assignment.num_workers == 15
    assert mols_assignment.num_files == 25
    assert mols_assignment.computational_load == 5
    assert mols_assignment.replication == 3
    assert mols_5_3.scheme_name == "mols"


def test_matches_paper_table2():
    """The exact file placement of the paper's Example 1 (Table 2)."""
    expected = {
        0: [0, 9, 13, 17, 21],
        1: [1, 5, 14, 18, 22],
        2: [2, 6, 10, 19, 23],
        3: [3, 7, 11, 15, 24],
        4: [4, 8, 12, 16, 20],
        5: [0, 8, 11, 19, 22],
        6: [1, 9, 12, 15, 23],
        7: [2, 5, 13, 16, 24],
        8: [3, 6, 14, 17, 20],
        9: [4, 7, 10, 18, 21],
        10: [0, 7, 14, 16, 23],
        11: [1, 8, 10, 17, 24],
        12: [2, 9, 11, 18, 20],
        13: [3, 5, 12, 19, 21],
        14: [4, 6, 13, 15, 22],
    }
    scheme = MOLSAssignment(load=5, replication=3)
    for worker, files in enumerate(scheme.worker_files()):
        assert files == expected[worker], f"worker {worker}"


def shared_files(assignment, a, b):
    return set(assignment.files_of_worker(a)) & set(assignment.files_of_worker(b))


def test_same_parallel_class_workers_share_no_files(mols_assignment):
    """§4.1: the l workers of parallel class k are U_{kl}, ..., U_{kl+l-1}."""
    l = 5
    for k in range(3):
        for a, b in itertools.combinations(range(k * l, (k + 1) * l), 2):
            assert shared_files(mols_assignment, a, b) == set()


def test_different_parallel_class_workers_share_exactly_one_file(mols_assignment):
    l = 5
    for a, b in itertools.combinations(range(15), 2):
        if a // l != b // l:
            assert len(shared_files(mols_assignment, a, b)) == 1


def test_every_file_replicated_r_times(mols_assignment):
    assert [len(workers_of_file(mols_assignment, i)) for i in range(25)] == [3] * 25


def test_worker_stores_the_cells_of_its_symbol(mols_5_3, mols_assignment):
    """Algorithm 2: worker U_{kl+s} stores file i*l + j for every cell (i, j)
    of symbol s in L_{k+1}."""
    l = 5
    squares = mols_5_3.latin_squares()
    for worker in range(15):
        k, s = divmod(worker, l)
        cells = [divmod(file, l) for file in mols_assignment.files_of_worker(worker)]
        assert len(cells) == l
        assert all(squares[k].grid[i, j] == s for i, j in cells)


@pytest.mark.parametrize("l, r", [(7, 3), (7, 5), (11, 3), (11, 5), (13, 3)])
def test_parallel_class_structure_of_larger_squares(l, r):
    """§4.1 beyond Table 2: each parallel class partitions the l² files, two
    workers of one class share no file, two of different classes share
    exactly one, and U_{kl+s} stores the cells of symbol s in L_{k+1}."""
    scheme = MOLSAssignment(load=l, replication=r)
    assignment = scheme.assignment
    squares = scheme.latin_squares()
    for k in range(r):
        files = [f for w in range(k * l, (k + 1) * l) for f in assignment.files_of_worker(w)]
        assert sorted(files) == list(range(l * l))
    for a, b in itertools.combinations(range(r * l), 2):
        assert len(shared_files(assignment, a, b)) == (0 if a // l == b // l else 1)
    for worker in range(r * l):
        k, s = divmod(worker, l)
        assert all(squares[k].grid[divmod(f, l)] == s for f in assignment.files_of_worker(worker))


def test_invalid_parameters():
    with pytest.raises(ConfigurationError):
        MOLSAssignment(load=6, replication=3)  # non-prime load
    with pytest.raises(ConfigurationError):
        MOLSAssignment(load=5, replication=5)  # r > l - 1
    with pytest.raises(ConfigurationError):
        MOLSAssignment(load=5, replication=1)  # no redundancy


def test_even_replication_builds():
    """The graph has no vote: an even r builds (the runner's check refuses it
    for a run)."""
    a = MOLSAssignment(load=5, replication=4).assignment
    assert (a.num_workers, a.num_files, a.computational_load, a.replication) == (20, 25, 5, 4)


def test_larger_configuration_7_5():
    scheme = MOLSAssignment(load=7, replication=5)
    assignment = scheme.assignment
    assert assignment.num_workers == 35
    assert assignment.num_files == 49
    assert assignment.computational_load == 7
    assert assignment.replication == 5


def test_assignment_caching(mols_5_3):
    assert mols_5_3.assignment is mols_5_3.assignment
