"""Fractional Repetition Code (FRC) assignment used by DETOX and DRACO.

The ``K`` workers are split into ``K / r`` groups of ``r`` consecutive
workers; the batch is split into ``f = K / r`` files and every worker of group
``g`` stores (only) file ``g``.  Majority voting then happens inside each
group.  Under the paper's omniscient adversary, placing ``r' = (r+1)/2``
Byzantines inside a group corrupts that group's vote, so the worst-case
distortion fraction is ``ε̂_FRC = floor(q / r') * r / K`` (Section 5.3.1).
"""

from __future__ import annotations

import numpy as np

from repro.assignment.base import AssignmentScheme
from repro.core.distortion import majority_threshold
from repro.exceptions import ConfigurationError
from repro.graphs.bipartite import BipartiteAssignment
from repro.utils.validation import check_positive_int

__all__ = ["FRCAssignment"]


class FRCAssignment(AssignmentScheme):
    """Grouped (fractional-repetition) placement of DETOX / DRACO.

    Parameters
    ----------
    num_workers:
        Total number of workers ``K``; must be divisible by ``replication``.
    replication:
        Group size ``r`` (each file is computed by all workers of one group).
        The graph has no vote, so any ``r`` builds; the scenario runner's
        ``check()`` refuses an even ``r`` for a run.
    """

    scheme_name = "frc"

    def __init__(self, num_workers: int, replication: int) -> None:
        self.num_workers_total = check_positive_int(num_workers, "num_workers K")
        self.replication_factor = check_positive_int(replication, "replication r")
        if num_workers % replication != 0:
            raise ConfigurationError(
                f"FRC requires r | K, got K={num_workers}, r={replication}"
            )

    @property
    def num_groups(self) -> int:
        """Number of groups (= number of files) ``K / r``."""
        return self.num_workers_total // self.replication_factor

    def build(self) -> BipartiteAssignment:
        """Materialize the grouped graph: worker ``j`` stores file ``j // r``."""
        K = self.num_workers_total
        r = self.replication_factor
        H = np.zeros((K, self.num_groups), dtype=np.int8)
        H[np.arange(K), np.arange(K) // r] = 1
        return BipartiteAssignment(H, name=f"frc(K={K},r={r})")

    @staticmethod
    def worst_case_epsilon(q: int, num_workers: int, replication: int) -> float:
        """Closed-form worst-case distortion fraction of Section 5.3.1.

        ``ε̂_FRC = floor(q / r') * r / K`` with the vote's
        ``r' = majority_threshold(r)`` (``(r + 1) / 2`` for odd ``r``), at
        most all ``K / r`` files.
        """
        if q < 0:
            raise ConfigurationError(f"q must be non-negative, got {q}")
        groups = min(q // majority_threshold(replication), num_workers // replication)
        return groups * replication / num_workers
