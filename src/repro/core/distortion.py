"""Worst-case distortion analysis (paper Section 5).

Given an assignment graph and a Byzantine worker set ``S``, a file's majority
vote is corrupted exactly when at least ``r' = (r + 1) / 2`` of its ``r``
copies are held by workers in ``S``.  The adversary of the paper is
*omniscient*: it chooses the ``q`` workers that corrupt the largest number of
files, and the resulting maximum ``c_max^(q)`` (and the fraction
``ε̂ = c_max / f``) is what Tables 3–6 report.

:func:`max_distortion` finds ``c_max`` exactly by scoring all ``C(K, q)``
Byzantine sets.  Every row of Tables 3–6 is in reach: the largest, Table 5
at ``q = 13``, is ``C(35, 13) ≈ 1.5·10⁹`` sets, and that count is
:data:`MAX_SEARCH_SETS`, above which the search refuses the input.

How the search enumerates
-------------------------
The ``q``-sets are the leaves of a prefix tree whose level ``j`` holds the
``j``-worker prefixes that can still be completed: a prefix ending at worker
``a`` is extended by every later worker ``b`` that leaves room for the rest
(``b <= K - q + j``).  A level is built from the one above in a few numpy
calls — ``np.repeat`` over the parent indices, so siblings stay contiguous
and every level is in lexicographic order.  Each prefix carries its per-file
count of Byzantine copies as bit-sliced saturating counters over
``⌈f/64⌉`` ``uint64`` words: plane ``k`` is the set of files holding more
than ``k`` copies, ``r'`` planes in all, so adding a worker costs ``2 r'``
bitwise operations and "at least ``r'`` copies" is one popcount of the top
plane.  The tree is cut on a leading-worker prefix into blocks whose scratch
stays under ``_SCRATCH_BYTES`` at any ``(K, q)``, and blocks run in order.

Tie-break contract: the result is the **lexicographically first maximiser**
— the first argmax inside a block, replaced only by a strictly larger count
in a later block — recovered by walking the winner's parent pointers back.
Every omniscient selector inherits that set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.assignment.baseline import BaselineAssignment
from repro.assignment.frc import FRCAssignment
from repro.exceptions import ConfigurationError
from repro.graphs.bipartite import BipartiteAssignment
from repro.graphs.expansion import gamma_upper_bound
from repro.graphs.spectral import second_eigenvalue

__all__ = [
    "DistortionResult",
    "MAX_SEARCH_SETS",
    "majority_threshold",
    "distorted_files",
    "count_distorted",
    "epsilon_hat",
    "max_distortion",
    "claim2_exact_c_max",
    "distortion_comparison_table",
]


def majority_threshold(replication: int) -> int:
    """Votes needed to corrupt a file: ``r' = (r + 1) // 2`` for odd ``r``.

    ``r = 1`` (no redundancy) degenerates to ``r' = 1``: a single Byzantine
    copy corrupts the file, as in the baseline schemes.
    """
    if replication < 1:
        raise ConfigurationError(f"replication must be >= 1, got {replication}")
    if replication > 1 and replication % 2 == 0:
        raise ConfigurationError(
            f"majority voting requires an odd replication factor, got {replication}"
        )
    return (replication + 1) // 2


def distorted_files(
    assignment: BipartiteAssignment, byzantine_workers: "set[int] | list[int] | tuple[int, ...]"
) -> np.ndarray:
    """Indices of files whose majority vote is corrupted by ``byzantine_workers``."""
    counts = assignment.file_copy_counts(byzantine_workers)
    threshold = majority_threshold(assignment.replication)
    return np.nonzero(counts >= threshold)[0]


def count_distorted(
    assignment: BipartiteAssignment, byzantine_workers: "set[int] | list[int] | tuple[int, ...]"
) -> int:
    """Number of corrupted file gradients for a concrete Byzantine set."""
    return int(distorted_files(assignment, byzantine_workers).size)


def epsilon_hat(
    assignment: BipartiteAssignment, byzantine_workers: "set[int] | list[int] | tuple[int, ...]"
) -> float:
    """Distortion fraction ``ε̂ = (number of corrupted files) / f``."""
    return count_distorted(assignment, byzantine_workers) / assignment.num_files


@dataclass(frozen=True)
class DistortionResult:
    """Outcome of a worst-case distortion search.

    Attributes
    ----------
    c_max:
        Maximum number of corrupted files found.
    epsilon:
        ``c_max / f``.
    byzantine_workers:
        A worker set achieving ``c_max``.
    num_byzantine:
        The budget ``q`` that was searched.
    gamma:
        The expansion upper bound γ of Claim 1, when computable
        (odd ``r >= 3``); NaN otherwise.
    """

    c_max: int
    epsilon: float
    byzantine_workers: tuple[int, ...]
    num_byzantine: int
    gamma: float = float("nan")


def _check_q(assignment: BipartiteAssignment, q: int) -> int:
    q = int(q)
    if q < 0:
        raise ConfigurationError(f"q must be non-negative, got {q}")
    if q > assignment.num_workers:
        raise ConfigurationError(
            f"q={q} exceeds the number of workers K={assignment.num_workers}"
        )
    return q


def _gamma_or_nan(assignment: BipartiteAssignment, q: int) -> float:
    r = assignment.replication
    if r < 3 or r % 2 == 0 or q == 0:
        return float("nan")
    mu1 = second_eigenvalue(assignment)
    return gamma_upper_bound(
        q,
        assignment.computational_load,
        r,
        assignment.num_workers,
        mu1,
    )


#: most candidate sets :func:`max_distortion` scores: Table 5's last row,
#: ``C(35, 13)``, about a minute on a 2-core x86-64 machine
MAX_SEARCH_SETS = math.comb(35, 13)

#: scratch one block of the search may hold; the block size follows from it
#: and the result does not depend on it
_SCRATCH_BYTES = 1 << 20


class _LexicographicSearch:
    """The search's prefix tree (see the module docstring).

    A node at level ``j`` is a ``j``-worker prefix, stored as its last worker
    and its column of the ``(threshold, nodes, words)`` counter planes; nodes
    travel in arrays of lexicographically ordered siblings.
    """

    def __init__(self, assignment: BipartiteAssignment, q: int) -> None:
        H = assignment.biadjacency.astype(bool)
        K, f = H.shape
        words = -(-f // 64)
        packed = np.zeros((K, 8 * words), dtype=np.uint8)
        packed[:, : -(-f // 8)] = np.packbits(H, axis=1)
        self.masks = packed.view(np.uint64)  # row j: worker j's files as a bitset
        self.K, self.q = K, q
        self.threshold = majority_threshold(assignment.replication)
        # bytes one q-set costs at the last level: parent and worker indices,
        # the gathered planes, the added mask and its temporaries
        self.budget = max(1, _SCRATCH_BYTES // (8 * ((self.threshold + 2) * words + 6)))
        # leaves[j, n]: q-sets below a level-j prefix with n workers after its
        # last one, saturated just above the budget
        self.leaves = np.array(
            [[min(math.comb(n, q - j), self.budget + 1) for n in range(K + 1)]
             for j in range(q + 1)],
            dtype=np.int64,
        )
        self.best_count = -1
        self.best_set: tuple[int, ...] = ()

    def run(self) -> tuple[int, tuple[int, ...]]:
        root = np.full(1, -1)
        planes = np.zeros((self.threshold, 1, self.masks.shape[1]), dtype=np.uint64)
        self._visit((), *self._extend(0, root, planes)[:2])
        return self.best_count, self.best_set

    def _extend(
        self, level: int, last: np.ndarray, planes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(last worker, planes, parent index)`` of the level+1 children, in order."""
        fanout = self.K - self.q + level - last  # children b with last < b <= K - q + level
        parent = np.repeat(np.arange(last.size), fanout)
        start = np.cumsum(fanout) - fanout
        worker = np.arange(parent.size) - np.repeat(start - last - 1, fanout)
        # ``take`` rather than fancy indexing: same result, a third of the time
        child = planes.take(parent, axis=1)
        added = self.masks.take(worker, axis=0)
        for k in range(self.threshold - 1, 0, -1):
            child[k] |= child[k - 1] & added
        child[0] |= added
        return worker, child, parent

    def _visit(self, prefix: tuple[int, ...], last: np.ndarray, planes: np.ndarray) -> None:
        """Score every q-set below the siblings ``prefix + (last[i],)``, in order."""
        level = len(prefix) + 1
        leaves = self.leaves[level, self.K - 1 - last]
        i = 0
        while i < last.size:
            if leaves[i] > self.budget:
                node = last[i : i + 1]
                children = self._extend(level, node, planes[:, i : i + 1])
                self._visit(prefix + (int(node[0]),), *children[:2])
                i += 1
                continue
            stop = i + int(np.searchsorted(np.cumsum(leaves[i:]), self.budget, side="right"))
            self._score_block(level, prefix, last[i:stop], planes[:, i:stop])
            i = stop

    def _score_block(
        self, level: int, prefix: tuple[int, ...], last: np.ndarray, planes: np.ndarray
    ) -> None:
        """Expand a run of siblings to level q; keep its first argmax if strictly better."""
        workers, parents = [last], []
        for j in range(level, self.q):
            last, planes, parent = self._extend(j, last, planes)
            workers.append(last)
            parents.append(parent)
        distorted = np.bitwise_count(planes[-1]).sum(axis=1)
        i = int(np.argmax(distorted))
        if distorted[i] <= self.best_count:
            return
        self.best_count = int(distorted[i])
        chosen = [int(workers[-1][i])]
        for parent, worker in zip(reversed(parents), reversed(workers[:-1])):
            i = int(parent[i])
            chosen.append(int(worker[i]))
        self.best_set = prefix + tuple(reversed(chosen))


def max_distortion(
    assignment: BipartiteAssignment,
    num_byzantine: int,
) -> DistortionResult:
    """Exact ``c_max`` by scoring every set of ``q`` workers.

    The sets are visited in lexicographic order by one vectorised pass over
    their prefix tree, with bit-sliced per-file counters (module docstring);
    the returned set is the lexicographically first maximiser, and the
    scratch stays under about 2 MiB at any ``(K, q)``.  More than
    :data:`MAX_SEARCH_SETS` candidate sets is refused.
    """
    q = _check_q(assignment, num_byzantine)
    K = assignment.num_workers
    num_sets = math.comb(K, q)
    if num_sets > MAX_SEARCH_SETS:
        raise ConfigurationError(
            f"the worst-case search over K={K}, q={q} would score C({K}, {q}) = "
            f"{num_sets:,} sets, above the limit of {MAX_SEARCH_SETS:,}"
        )
    if q == 0:
        return DistortionResult(0, 0.0, (), 0, _gamma_or_nan(assignment, 0))
    best_count, best_set = _LexicographicSearch(assignment, q).run()
    return DistortionResult(
        c_max=best_count,
        epsilon=best_count / assignment.num_files,
        byzantine_workers=best_set,
        num_byzantine=q,
        gamma=_gamma_or_nan(assignment, q),
    )


def claim2_exact_c_max(q: int, replication: int) -> int:
    """Exact ``c_max`` of Claim 2 for the small-Byzantine regime ``q <= r``.

    For ``r = 3``: 0 / 1 / 3 corrupted files for ``q < 2``, ``q = 2``,
    ``q = 3``.  For ``r > 3``: 0 for ``q < r'``, 1 for ``r' <= q < r`` and 2
    for ``q = r``.
    """
    r = int(replication)
    q = int(q)
    if q < 0 or q > r:
        raise ConfigurationError(f"Claim 2 covers 0 <= q <= r, got q={q}, r={r}")
    if r < 3 or r % 2 == 0:
        raise ConfigurationError(f"Claim 2 requires odd r >= 3, got r={r}")
    r_prime = majority_threshold(r)
    if r == 3:
        if q < 2:
            return 0
        return 1 if q == 2 else 3
    if q < r_prime:
        return 0
    if q < r:
        return 1
    return 2


def distortion_comparison_table(
    assignment: BipartiteAssignment,
    q_values: "list[int] | range",
) -> list[dict[str, float]]:
    """Rows matching the layout of paper Tables 3–6.

    Each row contains ``q``, the optimal ``c_max`` for the given assignment,
    ``ε̂`` for ByzShield, the baseline (``q / K``), the worst-case FRC fraction
    of Section 5.3.1 computed for the same ``K`` and ``r``, and the γ bound.
    """
    K = assignment.num_workers
    r = assignment.replication
    rows: list[dict[str, float]] = []
    for q in q_values:
        result = max_distortion(assignment, q)
        rows.append(
            {
                "q": int(q),
                "c_max": int(result.c_max),
                "epsilon_byzshield": result.epsilon,
                "epsilon_baseline": BaselineAssignment.worst_case_epsilon(q, K),
                "epsilon_frc": FRCAssignment.worst_case_epsilon(q, K, r),
                "gamma": result.gamma,
            }
        )
    return rows
