"""Spectral analysis of assignment graphs (paper Section 3 and Lemma 2).

For a biregular bipartite graph with bi-adjacency ``H`` (workers x files),
left degree ``dL = l`` and right degree ``dR = r``, the normalized matrix is
``A = H / sqrt(dL * dR)``.  The eigenvalues of ``A Aᵀ`` lie in ``[0, 1]`` with
top eigenvalue exactly 1; the second eigenvalue ``µ₁`` controls the expansion
of the graph via Lemma 1 and therefore the adversary's distortion power.

The paper's Lemma 2 gives closed forms for the constructions used:

* MOLS and Ramanujan Case 1: spectrum ``{(1, 1), (1/r, r(l-1)), (0, r-1)}``;
* Ramanujan Case 2 (``K = r²``): spectrum ``{(1, 1), (1/r, r(r-1)),
  (0, r-1)}``, the same form at ``l = r``.

This module computes the spectrum numerically for arbitrary assignments; the
tests check it against those closed forms.
"""

from __future__ import annotations

import numpy as np

from repro.core.backend import DEFAULT_DTYPE
from repro.exceptions import AssignmentError
from repro.graphs.bipartite import BipartiteAssignment

__all__ = [
    "normalized_biadjacency",
    "gram_spectrum",
    "second_eigenvalue",
]


def normalized_biadjacency(assignment: BipartiteAssignment) -> np.ndarray:
    """Return ``A = H / sqrt(dL * dR)`` for a biregular assignment."""
    dl = assignment.computational_load
    dr = assignment.replication
    return assignment.biadjacency.astype(DEFAULT_DTYPE) / np.sqrt(dl * dr)


def gram_spectrum(assignment: BipartiteAssignment) -> np.ndarray:
    """Eigenvalues of ``A Aᵀ`` in decreasing order.

    ``A Aᵀ`` is a ``K x K`` symmetric positive semi-definite matrix, so the
    eigenvalues are real and non-negative; the top one equals 1 for a
    connected biregular graph.
    """
    A = normalized_biadjacency(assignment)
    gram = A @ A.T
    eigenvalues = np.linalg.eigvalsh(gram)
    # eigvalsh returns ascending order; clip the tiny numerical noise outside
    # the theoretical range [0, 1] of a normalized biregular graph.
    eigenvalues = np.clip(eigenvalues[::-1], 0.0, 1.0)
    return eigenvalues


def second_eigenvalue(assignment: BipartiteAssignment) -> float:
    """The second largest eigenvalue ``µ₁`` of ``A Aᵀ``.

    This is the quantity plugged into the expansion bound (Lemma 1).  For the
    paper's constructions it equals ``1/r``.
    """
    eigenvalues = gram_spectrum(assignment)
    if eigenvalues.size < 2:
        raise AssignmentError(
            "the assignment has a single worker; µ₁ is undefined"
        )
    return float(eigenvalues[1])

