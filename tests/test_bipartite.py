"""Tests for repro.graphs.bipartite."""

import numpy as np
import pytest

from repro.exceptions import AssignmentError, ConfigurationError
from repro.graphs.bipartite import BipartiteAssignment


def small_assignment() -> BipartiteAssignment:
    # 3 workers, 3 files, each worker stores 2 files, each file has 2 copies.
    H = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.int8)
    return BipartiteAssignment(H, name="triangle")


def test_basic_properties():
    a = small_assignment()
    assert a.num_workers == 3
    assert a.num_files == 3
    assert a.num_edges == 6
    assert a.computational_load == 2
    assert a.replication == 2


def test_biadjacency_is_a_copy():
    a = small_assignment()
    H = a.biadjacency
    H[0, 0] = 0
    assert a.biadjacency[0, 0] == 1


def test_neighborhoods():
    a = small_assignment()
    assert a.files_of_worker(0) == (0, 1)
    assert a.workers_of_file(2) == (1, 2)


def test_file_copy_counts():
    a = small_assignment()
    counts = a.file_copy_counts([0, 1])
    assert np.array_equal(counts, [1, 2, 1])
    assert np.array_equal(a.file_copy_counts([]), [0, 0, 0])


def test_file_copy_counts_rejects_duplicates_and_out_of_range():
    a = small_assignment()
    with pytest.raises(ConfigurationError):
        a.file_copy_counts([0, 0])
    with pytest.raises(ConfigurationError):
        a.file_copy_counts([7])


def test_index_validation():
    a = small_assignment()
    with pytest.raises(ConfigurationError):
        a.files_of_worker(3)
    with pytest.raises(ConfigurationError):
        a.workers_of_file(-1)


def test_rejects_non_binary_entries():
    with pytest.raises(ConfigurationError):
        BipartiteAssignment(np.array([[2, 0], [0, 1]]))


def test_rejects_empty_and_wrong_ndim():
    with pytest.raises(ConfigurationError):
        BipartiteAssignment(np.zeros((0, 3)))
    with pytest.raises(ConfigurationError):
        BipartiteAssignment(np.zeros(3))


def test_rejects_isolated_workers_or_files():
    with pytest.raises(AssignmentError):
        BipartiteAssignment(np.array([[1, 1], [0, 0]]))
    with pytest.raises(AssignmentError):
        BipartiteAssignment(np.array([[1, 0], [1, 0]]))


def test_irregular_graph_rejected():
    with pytest.raises(AssignmentError, match="not left-regular"):
        BipartiteAssignment(np.array([[1, 1, 1], [1, 0, 0], [0, 1, 1]]))
    with pytest.raises(AssignmentError, match="not right-regular"):
        BipartiteAssignment(np.array([[1, 1, 0], [1, 0, 1]]))


def test_from_worker_files_round_trip():
    a = small_assignment()
    rebuilt = BipartiteAssignment.from_worker_files(
        [a.files_of_worker(j) for j in range(a.num_workers)], num_files=3
    )
    assert rebuilt == a
    assert hash(rebuilt) == hash(a)


def test_from_worker_files_mapping_and_errors():
    built = BipartiteAssignment.from_worker_files({0: [0, 1], 1: [1, 2], 2: [0, 2]})
    assert built.num_files == 3
    with pytest.raises(ConfigurationError):
        BipartiteAssignment.from_worker_files({0: [0], 2: [1]})
    with pytest.raises(AssignmentError):
        BipartiteAssignment.from_worker_files([[0, 0], [1, 0]])
    with pytest.raises(ConfigurationError):
        BipartiteAssignment.from_worker_files([[0, 5]], num_files=2)


def test_worker_file_table_matches_neighborhoods():
    a = small_assignment()
    table = a.worker_file_table()
    assert table[0] == (0, (0, 1))
    assert len(table) == a.num_workers


def test_equality_with_other_types():
    assert small_assignment() != "not an assignment"
