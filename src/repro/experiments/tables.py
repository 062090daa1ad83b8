"""Distortion-fraction tables (paper Tables 3–6).

Each generator builds the table's cluster configuration, runs the worst-case
distortion search for every ``q`` of the paper's row range and emits rows in
the paper's column layout (``q``, ``c_max``, ``ε̂`` for ByzShield / baseline /
FRC, and the expansion bound ``γ``).
"""

from __future__ import annotations

from typing import Iterable

from repro.assignment.mols import MOLSAssignment
from repro.assignment.ramanujan import RamanujanAssignment
from repro.core.distortion import distortion_comparison_table
from repro.exceptions import ConfigurationError
from repro.graphs.bipartite import BipartiteAssignment

__all__ = [
    "generate_distortion_table",
    "generate_table3",
    "generate_table4",
    "generate_table5",
    "generate_table6",
]


def generate_distortion_table(
    assignment: BipartiteAssignment, q_values: Iterable[int]
) -> list[dict[str, float]]:
    """Distortion-comparison rows for an arbitrary assignment graph."""
    return distortion_comparison_table(assignment, list(q_values))


def generate_table3() -> list[dict[str, float]]:
    """Table 3: MOLS ``(K, f, l, r) = (15, 25, 5, 3)``, ``q = 2..7``."""
    assignment = MOLSAssignment(load=5, replication=3).assignment
    return generate_distortion_table(assignment, range(2, 8))


def generate_table4() -> list[dict[str, float]]:
    """Table 4: Ramanujan Case 2 ``(K, f, l, r) = (25, 25, 5, 5)``, ``q = 3..12``.

    The largest search is ``C(25, 12) ≈ 5.2M`` candidate sets.
    """
    assignment = RamanujanAssignment(m=5, s=5).assignment
    return generate_distortion_table(assignment, range(3, 13))


def generate_table5(max_q: int = 13) -> list[dict[str, float]]:
    """Table 5: MOLS ``(K, f, l, r) = (35, 49, 7, 5)``, ``q = 3..max_q``.

    The paper stops at ``q = 13``; that row scores ``C(35, 13) ≈ 1.5·10⁹``
    sets, the search's limit, so ``max_q`` cannot exceed it.
    """
    if not (3 <= max_q <= 13):
        raise ConfigurationError(f"max_q must be in [3, 13], got {max_q}")
    assignment = MOLSAssignment(load=7, replication=5).assignment
    return generate_distortion_table(assignment, range(3, max_q + 1))


def generate_table6() -> list[dict[str, float]]:
    """Table 6: MOLS ``(K, f, l, r) = (21, 49, 7, 3)``, ``q = 2..10``."""
    assignment = MOLSAssignment(load=7, replication=3).assignment
    return generate_distortion_table(assignment, range(2, 11))
