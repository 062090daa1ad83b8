"""Tests for repro.graphs.spectral — numerical spectra versus paper Lemma 2."""

import numpy as np
import pytest

from repro.assignment.mols import MOLSAssignment
from repro.exceptions import AssignmentError
from repro.graphs.bipartite import BipartiteAssignment
from repro.graphs.spectral import gram_spectrum, normalized_biadjacency, second_eigenvalue

from paper_oracles import spectrum_matches, theoretical_mols_spectrum


def test_normalized_biadjacency_scaling(mols_assignment):
    A = normalized_biadjacency(mols_assignment)
    H = mols_assignment.biadjacency
    assert np.allclose(A, H / np.sqrt(5 * 3))


def test_top_eigenvalue_is_one(mols_assignment):
    eigenvalues = gram_spectrum(mols_assignment)
    assert eigenvalues[0] == pytest.approx(1.0, abs=1e-9)
    assert np.all(eigenvalues >= -1e-12)
    assert np.all(eigenvalues <= 1.0 + 1e-9)


def test_mols_spectrum_matches_lemma2(mols_assignment):
    observed = gram_spectrum(mols_assignment)
    expected = theoretical_mols_spectrum(l=5, r=3)
    assert spectrum_matches(observed, expected, atol=1e-8)
    assert second_eigenvalue(mols_assignment) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_ramanujan_case1_spectrum_matches_mols(ramanujan_case1):
    observed = gram_spectrum(ramanujan_case1.assignment)
    expected = theoretical_mols_spectrum(l=5, r=3)
    assert spectrum_matches(observed, expected, atol=1e-8)


def test_ramanujan_case2_spectrum(ramanujan_case2):
    observed = gram_spectrum(ramanujan_case2.assignment)
    # Lemma 2 case 2 has K = r² workers: the MOLS form at l = r.
    expected = theoretical_mols_spectrum(l=5, r=5)
    assert spectrum_matches(observed, expected, atol=1e-8)
    assert second_eigenvalue(ramanujan_case2.assignment) == pytest.approx(0.2, abs=1e-9)


def test_mols_7_5_spectrum():
    assignment = MOLSAssignment(load=7, replication=5).assignment
    observed = gram_spectrum(assignment)
    assert spectrum_matches(observed, theoretical_mols_spectrum(l=7, r=5), atol=1e-8)


def test_second_eigenvalue_single_worker_raises():
    single = BipartiteAssignment(np.ones((1, 2), dtype=np.int8))
    with pytest.raises(AssignmentError):
        second_eigenvalue(single)


def test_spectrum_matches_rejects_wrong_multiplicity():
    observed = gram_spectrum(MOLSAssignment(load=5, replication=3).assignment)
    wrong = [(1.0, 2), (1.0 / 3.0, 12), (0.0, 1)]
    assert not spectrum_matches(observed, wrong)
