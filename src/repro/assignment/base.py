"""Abstract base class for task-assignment schemes."""

from __future__ import annotations

import abc

from repro.graphs.bipartite import BipartiteAssignment

__all__ = ["AssignmentScheme"]


class AssignmentScheme(abc.ABC):
    """A rule for placing ``f`` gradient files on ``K`` workers.

    Concrete schemes are immutable descriptions of a placement; calling
    :meth:`build` materializes the bipartite graph.  The graph is cached
    because it is queried repeatedly (distortion analysis, every training
    iteration), and all schemes in this library are deterministic given their
    construction arguments.
    """

    #: short identifier used by the registry and experiment configs
    scheme_name: str = "abstract"

    @abc.abstractmethod
    def build(self) -> BipartiteAssignment:
        """Construct and return the worker/file assignment graph."""

    # -- derived quantities --------------------------------------------------
    @property
    def assignment(self) -> BipartiteAssignment:
        """The (cached) assignment graph."""
        cached = getattr(self, "_cached_assignment", None)
        if cached is None:
            cached = self.build()
            self._cached_assignment = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - trivial
        a = self.assignment
        return (
            f"{type(self).__name__}(K={a.num_workers}, f={a.num_files}, "
            f"l={a.computational_load}, r={a.replication})"
        )
