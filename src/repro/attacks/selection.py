"""Byzantine worker selection policies.

DETOX and DRACO assume the ``q`` Byzantine workers are chosen *at random*
each iteration; ByzShield's threat model lets an omniscient adversary pick the
worst possible set given the (known) task assignment.  The paper's
deep-learning experiments use the omniscient selector below ("we chose the q
Byzantines such that ε̂ is maximized", Section 6.1); the random draw and the
time-varying budgets are :class:`~repro.attacks.schedules.ScheduledSelector`
modes.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.distortion import max_distortion
from repro.exceptions import AttackError
from repro.graphs.bipartite import BipartiteAssignment

__all__ = [
    "ByzantineSelector",
    "OmniscientSelector",
]


class ByzantineSelector(abc.ABC):
    """Chooses which ``q`` workers behave adversarially in an iteration."""

    @abc.abstractmethod
    def select(
        self,
        assignment: BipartiteAssignment,
        iteration: int,
        rng: np.random.Generator,
    ) -> tuple[int, ...]:
        """Return the Byzantine worker indices for ``iteration``."""


class OmniscientSelector(ByzantineSelector):
    """The paper's worst-case adversary: maximize the distortion fraction ``ε̂``.

    The optimal set depends only on the assignment graph, so it is computed
    once by :func:`repro.core.distortion.max_distortion` (the
    lexicographically first maximiser) and reused every iteration.

    Parameters
    ----------
    num_byzantine:
        Number of compromised workers ``q``.
    """

    def __init__(self, num_byzantine: int) -> None:
        if num_byzantine < 0:
            raise AttackError(f"num_byzantine must be non-negative, got {num_byzantine}")
        self.num_byzantine = int(num_byzantine)
        # keyed on the graph object: a scheme builds its graph once, and two
        # graph objects get a set each
        self._cache: dict[BipartiteAssignment, tuple[int, ...]] = {}

    def select(
        self,
        assignment: BipartiteAssignment,
        iteration: int,
        rng: np.random.Generator,
    ) -> tuple[int, ...]:
        chosen = self._cache.get(assignment)
        if chosen is None:
            result = max_distortion(assignment, self.num_byzantine)
            chosen = self._cache[assignment] = tuple(sorted(result.byzantine_workers))
        return chosen
