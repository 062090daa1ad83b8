"""Ramanujan-bigraph task assignment (paper Section 4.2).

The construction of Burnwal, Vidyasagar & Sinha builds the bi-adjacency matrix
from LDPC "array code" blocks.  With ``P`` the ``s x s`` cyclic-shift
permutation matrix, define the ``s² x m·s`` block matrix

``B = [ [I, I, ..., I], [I, P, P², ...], [I, P², P⁴, ...], ... ]``

whose block ``(a, b)`` is ``P^{a·b}``.  Then

* **Case 1** (``m < s``): ``H = Bᵀ`` — ``K = m·s`` workers, ``f = s²`` files,
  load ``l = s`` and replication ``r = m``;
* **Case 2** (``m >= s``): ``H = B`` — ``K = s²`` workers, ``f = m·s`` files,
  load ``l = m`` and replication ``r = s``.

Both graphs are Ramanujan bigraphs; Case 1 has the same ``(K, f, l, r)`` and
spectrum as a MOLS assignment with the same parameters (paper Lemma 2).
"""

from __future__ import annotations

import numpy as np

from repro.assignment.base import AssignmentScheme
from repro.exceptions import ConfigurationError
from repro.graphs.bipartite import BipartiteAssignment
from repro.utils.validation import check_positive_int, check_prime

__all__ = ["RamanujanAssignment", "ramanujan_biadjacency"]


def ramanujan_biadjacency(m: int, s: int) -> np.ndarray:
    """Array-code block matrix ``B`` of shape ``(s², m·s)``; block ``(a,b)=P^{ab}``."""
    check_positive_int(m, "m")
    check_prime(s, "s")
    if m < 2:
        raise ConfigurationError(f"the construction requires m >= 2, got m={m}")
    # Vectorized construction: entry ((a, i), (b, j)) is 1 iff j ≡ i − a·b (mod s).
    a = np.arange(s)[:, None, None, None]  # block row
    i = np.arange(s)[None, :, None, None]  # row within block
    b = np.arange(m)[None, None, :, None]  # block column
    j = np.arange(s)[None, None, None, :]  # column within block
    B = (np.mod(i - a * b, s) == j).astype(np.int8)
    return B.reshape(s * s, m * s)


class RamanujanAssignment(AssignmentScheme):
    """Task placement from an array-code Ramanujan bigraph.

    Parameters
    ----------
    m:
        Number of block columns (``m >= 2``).
    s:
        Prime block size.

    The replication factor is ``m`` in Case 1 and ``s`` in Case 2.  The
    graph has no vote, so an even one builds too; the scenario runner's
    ``check()`` refuses an even ``r`` for a run.
    """

    scheme_name = "ramanujan"

    def __init__(self, m: int, s: int) -> None:
        self.m = check_positive_int(m, "m")
        self.s = check_prime(s, "s")
        if m < 2:
            raise ConfigurationError(f"the construction requires m >= 2, got m={m}")
        self.case = 1 if m < s else 2

    def build(self) -> BipartiteAssignment:
        """Materialize the bipartite graph (rows = workers, columns = files)."""
        B = ramanujan_biadjacency(self.m, self.s)
        H = B.T if self.case == 1 else B
        return BipartiteAssignment(
            H, name=f"ramanujan(m={self.m},s={self.s},case={self.case})"
        )

