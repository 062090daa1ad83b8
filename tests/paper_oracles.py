"""The paper's definitions and closed forms, written out once for the tests.

The assignment, spectrum and bound tests compare what ``repro`` builds with
these: ``N(B_i)`` and ``|E|`` read off the bi-adjacency matrix, graph
identity, Definition 2 (MOLS orthogonality), Step 2's cyclic shift ``P``,
Eq. (6), Lemma 2's spectrum and the Section 5.1.2 bound.
"""

from __future__ import annotations

import numpy as np


def workers_of_file(assignment, file):
    """The workers holding ``file``, ascending — the paper's ``N(B_i)``."""
    return tuple(int(j) for j in np.nonzero(assignment.biadjacency[:, file])[0])


def num_edges(assignment):
    """``|E| = K l = f r``: the assignment's edge count."""
    return int(assignment.biadjacency.sum())


def same_graph(a, b):
    """Whether two assignments are the same graph (equal bi-adjacency)."""
    return np.array_equal(a.biadjacency, b.biadjacency)


def are_orthogonal(a, b):
    """Definition 2: two Latin squares of one degree are orthogonal iff the
    ``l**2`` ordered pairs ``(a[i, j], b[i, j])`` are all distinct."""
    if a.degree != b.degree:
        raise ValueError(f"cannot compare squares of degree {a.degree} and {b.degree}")
    l = a.degree
    pairs = a.grid.astype(np.int64) * l + b.grid.astype(np.int64)
    return np.unique(pairs).size == l * l


def cyclic_shift_matrix(s):
    """The ``s x s`` cyclic-shift permutation matrix ``P`` of Step 2: with
    1-indexed entries ``P[i, j] = 1`` iff ``j ≡ i − 1 (mod s)``, so its
    ``k``-th power shifts by ``k``."""
    P = np.zeros((s, s), dtype=np.int8)
    rows = np.arange(s)
    P[rows, (rows - 1) % s] = 1
    return P


def ramanujan_parameters(m, s):
    """``(K, f, l, r)`` of the Ramanujan construction per Eq. (6): Case 1
    (``m < s``) has ``K = m s``, ``f = s²``, ``l = s``, ``r = m``; Case 2
    swaps the roles."""
    if m < s:
        return {"num_workers": m * s, "num_files": s * s, "load": s, "replication": m}
    return {"num_workers": s * s, "num_files": m * s, "load": m, "replication": s}


def theoretical_mols_spectrum(l, r):
    """Lemma 2: the spectrum of ``A Aᵀ`` for MOLS and both Ramanujan cases,
    ``[(1, 1), (1/r, r(l-1)), (0, r-1)]`` as (eigenvalue, multiplicity).
    ``l`` enters only through ``K = r l``; Ramanujan Case 2 (``K = r²``) is
    this form at ``l = r``."""
    return [(1.0, 1), (1.0 / r, r * (l - 1)), (0.0, r - 1)]


def spectrum_matches(observed, expected, atol=1e-8):
    """Whether an eigenvalue array matches a (value, multiplicity) list."""
    expanded = np.sort(np.concatenate([np.full(mult, value) for value, mult in expected]))
    observed = np.sort(np.asarray(observed, dtype=np.float64))
    return observed.size == expanded.size and bool(np.allclose(observed, expanded, atol=atol))


def ramanujan_case2_epsilon_upper_bound(q, r):
    """Section 5.1.2, Ramanujan Case 2 (``K = r²``, ``f = r l``):
    ``ε̂ <= (2 q² / r²) / (r + (r − 1) q / r)``."""
    if q < 0:
        raise ValueError(f"q must be non-negative, got {q}")
    if q == 0:
        return 0.0
    return (2.0 * q * q / (r * r)) / (r + (r - 1.0) * q / r)
