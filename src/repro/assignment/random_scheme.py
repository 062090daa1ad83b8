"""Random biregular assignment (ablation baseline).

DETOX's guarantees rely on the task assignment and the Byzantine set both
being random.  To quantify how much of ByzShield's advantage comes from the
*structured* expander placement, this scheme draws a uniformly random
biregular bipartite graph with the same ``(K, f, l, r)`` as a given MOLS /
Ramanujan configuration and is then subjected to the same omniscient attack.
"""

from __future__ import annotations

import numpy as np

from repro.assignment.base import AssignmentScheme
from repro.exceptions import AssignmentError, ConfigurationError
from repro.graphs.bipartite import BipartiteAssignment
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_int

__all__ = ["RandomAssignment"]

#: redraws of the configuration-model sampler before it gives up
_MAX_ATTEMPTS = 2000


class RandomAssignment(AssignmentScheme):
    """Uniformly random biregular placement with given load and replication.

    The configuration-model sampler rejects placements that give a worker two
    copies of the same file and redraws at most :data:`_MAX_ATTEMPTS` times.

    Parameters
    ----------
    num_workers:
        Number of workers ``K``.
    num_files:
        Number of files ``f``; ``K * l == f * r`` must hold.
    replication:
        Copies per file ``r``.
    seed:
        Seed (or generator) controlling the random placement.
    """

    scheme_name = "random"

    def __init__(
        self,
        num_workers: int,
        num_files: int,
        replication: int,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        self.num_workers_total = check_positive_int(num_workers, "num_workers K")
        self.num_files_total = check_positive_int(num_files, "num_files f")
        self.replication_factor = check_positive_int(replication, "replication r")
        edges = num_files * replication
        if edges % num_workers != 0:
            raise ConfigurationError(
                f"f*r={edges} must be divisible by K={num_workers} for a "
                "biregular placement"
            )
        self.load = edges // num_workers
        if self.load > num_files:
            raise ConfigurationError(
                f"load l={self.load} exceeds the number of files f={num_files}"
            )
        self._rng = as_generator(seed)

    def build(self) -> BipartiteAssignment:
        """Sample a biregular graph via the configuration model with rejection."""
        K, f, r, l = (
            self.num_workers_total,
            self.num_files_total,
            self.replication_factor,
            self.load,
        )
        file_stubs = np.repeat(np.arange(f), r)
        for _ in range(_MAX_ATTEMPTS):
            perm = self._rng.permutation(file_stubs)
            H = np.zeros((K, f), dtype=np.int8)
            ok = True
            for worker in range(K):
                files = perm[worker * l : (worker + 1) * l]
                if np.unique(files).size != l:
                    ok = False
                    break
                H[worker, files] = 1
            if ok:
                return BipartiteAssignment(
                    H, name=f"random(K={K},f={f},l={l},r={r})"
                )
        raise AssignmentError(
            "failed to sample a simple biregular assignment within "
            f"{_MAX_ATTEMPTS} attempts; the parameters may be too tight"
        )
