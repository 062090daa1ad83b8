"""MOLS-based task assignment (paper Algorithm 2, Section 4.1).

The batch is split into ``f = l²`` files identified with the cells ``(i, j)``
of an ``l x l`` grid (file index ``i*l + j``).  Given ``r`` mutually
orthogonal Latin squares ``L_1, ..., L_r`` of prime degree ``l``, worker
``U_{k*l + s}`` (the ``s``-th worker of the ``k``-th *parallel class*) stores
the files located at the cells of symbol ``s`` in ``L_{k+1}``.

Structural consequences used throughout the paper and verified by the tests:

* each worker stores exactly ``l`` files,
* two workers of the same parallel class share no file,
* two workers of different parallel classes share exactly one file,
* the resulting graph has ``µ₁ = 1/r`` (it is an optimal expander).
"""

from __future__ import annotations


from repro.assignment.base import AssignmentScheme
from repro.exceptions import ConfigurationError
from repro.fields.latin_squares import LatinSquare, mols_family
from repro.graphs.bipartite import BipartiteAssignment
from repro.utils.validation import check_positive_int, check_prime

__all__ = ["MOLSAssignment"]


class MOLSAssignment(AssignmentScheme):
    """Worker/file placement driven by mutually orthogonal Latin squares.

    Parameters
    ----------
    load:
        Computational load ``l`` — prime degree of the Latin squares.  The
        scheme uses ``K = r*l`` workers and ``f = l²`` files.
    replication:
        Replication factor ``r``: at least 2 and at most ``l - 1``.  The
        graph has no vote, so any such ``r`` builds; the scenario runner's
        ``check()`` refuses an even ``r`` for a run.
    """

    scheme_name = "mols"

    def __init__(self, load: int, replication: int) -> None:
        self.load = check_prime(load, "load l")
        self.replication_factor = check_positive_int(replication, "replication r")
        if replication > load - 1:
            raise ConfigurationError(
                f"MOLS supports at most l-1={load - 1} replicas, got r={replication}"
            )
        if replication < 2:
            raise ConfigurationError(
                f"redundancy requires r >= 2, got r={replication}"
            )

    # -- construction ---------------------------------------------------------
    def latin_squares(self) -> list[LatinSquare]:
        """The ``r`` MOLS ``L_1, ..., L_r`` used for the placement."""
        return mols_family(self.load, self.replication_factor)

    def worker_files(self) -> list[list[int]]:
        """Per-worker file lists — the rows of the paper's Table 2."""
        l = self.load
        squares = self.latin_squares()
        assignments: list[list[int]] = []
        for k, square in enumerate(squares):
            for s in range(l):
                cells = square.symbol_cells(s)
                files = sorted(i * l + j for i, j in cells)
                assignments.append(files)
        return assignments

    def build(self) -> BipartiteAssignment:
        """Materialize the bipartite graph with ``K = r*l`` workers, ``f = l²`` files."""
        l = self.load
        return BipartiteAssignment.from_worker_files(
            self.worker_files(),
            num_files=l * l,
            name=f"mols(l={l},r={self.replication_factor})",
        )
