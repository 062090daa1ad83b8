"""Bipartite assignment graphs, spectra and expansion bounds.

The worker-to-file assignment of ByzShield is a biregular bipartite graph
``G = (U ∪ F, E)`` with ``K`` workers on the left and ``f`` files on the
right.  This package provides the graph data structure
(:class:`BipartiteAssignment`), spectral analysis of the normalized
bi-adjacency matrix (paper Section 3) and the expansion-based distortion
bounds of Lemma 1 / Claim 1 (paper Section 5.1).
"""

from repro.graphs.bipartite import BipartiteAssignment
from repro.graphs.expansion import (
    neighborhood_lower_bound,
    gamma_upper_bound,
    mols_epsilon_upper_bound,
)
from repro.graphs.spectral import (
    normalized_biadjacency,
    gram_spectrum,
    second_eigenvalue,
)

__all__ = [
    "BipartiteAssignment",
    "normalized_biadjacency",
    "gram_spectrum",
    "second_eigenvalue",
    "neighborhood_lower_bound",
    "gamma_upper_bound",
    "mols_epsilon_upper_bound",
]
