"""Worst-case distortion analysis (paper Section 5).

Given an assignment graph and a Byzantine worker set ``S``, a file's majority
vote is corrupted exactly when at least ``r' = (r + 1) / 2`` of its ``r``
copies are held by workers in ``S``.  The adversary of the paper is
*omniscient*: it chooses the ``q`` workers that corrupt the largest number of
files, and the resulting maximum ``c_max^(q)`` (and the fraction
``ε̂ = c_max / f``) is what Tables 3–6 report.

The module provides three optimizers for ``c_max``:

* :func:`max_distortion_exhaustive` — exact, scores all ``C(K, q)``
  Byzantine sets (used for every table row where the paper itself ran
  exhaustive search);
* :func:`max_distortion_greedy` — picks workers one at a time maximizing the
  number of corrupted files, breaking ties by "almost corrupted" copies;
* :func:`max_distortion_local_search` — greedy start plus swap-based hill
  climbing with random restarts, for regimes where exhaustive search is
  intractable (the paper notes the same intractability for Table 5).

How the exhaustive search enumerates
------------------------------------
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
from repro.utils.rng import as_generator

__all__ = [
    "DistortionResult",
    "majority_threshold",
    "distorted_files",
    "count_distorted",
    "epsilon_hat",
    "max_distortion_exhaustive",
    "max_distortion_greedy",
    "max_distortion_local_search",
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
    method:
        ``"exhaustive"``, ``"greedy"`` or ``"local_search"``.
    exact:
        True when the search provably found the optimum (exhaustive search).
    gamma:
        The expansion upper bound γ of Claim 1, when computable
        (odd ``r >= 3``); NaN otherwise.
    """

    c_max: int
    epsilon: float
    byzantine_workers: tuple[int, ...]
    num_byzantine: int
    method: str
    exact: bool
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


#: scratch one block of the exhaustive search may hold; the block size
#: follows from it and the result does not depend on it
_SCRATCH_BYTES = 1 << 20


class _LexicographicSearch:
    """The exhaustive search's prefix tree (see the module docstring).

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


def max_distortion_exhaustive(
    assignment: BipartiteAssignment,
    num_byzantine: int,
) -> DistortionResult:
    """Exact ``c_max`` by scoring every set of ``q`` workers.

    The sets are visited in lexicographic order by one vectorised pass over
    their prefix tree, with bit-sliced per-file counters (module docstring);
    the returned set is the lexicographically first maximiser, and the
    scratch stays under about 2 MiB at any ``(K, q)``.
    """
    q = _check_q(assignment, num_byzantine)
    if q == 0:
        return DistortionResult(0, 0.0, (), 0, "exhaustive", True, _gamma_or_nan(assignment, 0))
    best_count, best_set = _LexicographicSearch(assignment, q).run()
    return DistortionResult(
        c_max=best_count,
        epsilon=best_count / assignment.num_files,
        byzantine_workers=best_set,
        num_byzantine=q,
        method="exhaustive",
        exact=True,
        gamma=_gamma_or_nan(assignment, q),
    )


def _corrupted_count_from_copy_counts(counts: np.ndarray, threshold: int) -> int:
    return int(np.count_nonzero(counts >= threshold))


def max_distortion_greedy(
    assignment: BipartiteAssignment, num_byzantine: int
) -> DistortionResult:
    """Greedy ``c_max`` heuristic: add the worker with the best marginal gain.

    Ties in the number of newly corrupted files are broken in favour of the
    worker that pushes the most files closest to the corruption threshold,
    which matters in the early rounds when no single worker can corrupt
    anything on its own.
    """
    q = _check_q(assignment, num_byzantine)
    H = assignment.biadjacency.astype(np.int64)
    K, f = H.shape
    threshold = majority_threshold(assignment.replication)
    chosen: list[int] = []
    counts = np.zeros(f, dtype=np.int64)
    remaining = set(range(K))
    for _ in range(q):
        best_worker = None
        best_key: tuple[int, float] | None = None
        for w in remaining:
            new_counts = counts + H[w]
            corrupted = _corrupted_count_from_copy_counts(new_counts, threshold)
            # Secondary objective: total progress toward the threshold,
            # capped so already-corrupted files do not dominate.
            progress = float(np.minimum(new_counts, threshold).sum())
            key = (corrupted, progress)
            if best_key is None or key > best_key:
                best_key = key
                best_worker = w
        assert best_worker is not None
        chosen.append(best_worker)
        counts += H[best_worker]
        remaining.discard(best_worker)
    c_max = _corrupted_count_from_copy_counts(counts, threshold)
    return DistortionResult(
        c_max=c_max,
        epsilon=c_max / f,
        byzantine_workers=tuple(chosen),
        num_byzantine=q,
        method="greedy",
        exact=False,
        gamma=_gamma_or_nan(assignment, q),
    )


def _randomized_greedy_set(
    H: np.ndarray, q: int, threshold: int, rng: np.random.Generator, top_k: int = 3
) -> np.ndarray:
    """Greedy construction that breaks near-ties randomly (for restart diversity)."""
    K, f = H.shape
    chosen: list[int] = []
    counts = np.zeros(f, dtype=np.int64)
    remaining = list(range(K))
    for _ in range(q):
        keys = []
        for w in remaining:
            new_counts = counts + H[w]
            corrupted = _corrupted_count_from_copy_counts(new_counts, threshold)
            progress = float(np.minimum(new_counts, threshold).sum())
            keys.append((corrupted, progress))
        order = sorted(range(len(remaining)), key=lambda i: keys[i], reverse=True)
        pick = order[int(rng.integers(0, min(top_k, len(order))))]
        worker = remaining.pop(pick)
        chosen.append(worker)
        counts += H[worker]
    return np.asarray(chosen, dtype=np.int64)


def _hill_climb_single_swaps(
    H: np.ndarray,
    current: np.ndarray,
    current_count: int,
    threshold: int,
    max_rounds: int,
) -> tuple[np.ndarray, int]:
    """Best-improvement 1-swap hill climbing."""
    K = H.shape[0]
    for _ in range(max_rounds):
        inside = set(int(w) for w in current)
        outside = [w for w in range(K) if w not in inside]
        base_counts = H[current].sum(axis=0)
        best_move: tuple[int, int] | None = None
        best_move_count = current_count
        for pos, w_in in enumerate(current):
            without = base_counts - H[w_in]
            for w_out in outside:
                cand = _corrupted_count_from_copy_counts(without + H[w_out], threshold)
                if cand > best_move_count:
                    best_move_count = cand
                    best_move = (pos, w_out)
        if best_move is None:
            break
        pos, w_out = best_move
        current = current.copy()
        current[pos] = w_out
        current_count = best_move_count
    return current, current_count


def _hill_climb_pair_swap_once(
    H: np.ndarray,
    current: np.ndarray,
    current_count: int,
    threshold: int,
) -> tuple[np.ndarray, int, bool]:
    """One pass of first-improvement 2-swap (escape 1-swap local optima)."""
    K = H.shape[0]
    q = current.size
    inside = set(int(w) for w in current)
    outside = [w for w in range(K) if w not in inside]
    base_counts = H[current].sum(axis=0)
    for a in range(q):
        for b in range(a + 1, q):
            without = base_counts - H[current[a]] - H[current[b]]
            for i, w_out_1 in enumerate(outside):
                partial = without + H[w_out_1]
                for w_out_2 in outside[i + 1 :]:
                    cand = _corrupted_count_from_copy_counts(
                        partial + H[w_out_2], threshold
                    )
                    if cand > current_count:
                        updated = current.copy()
                        updated[a] = w_out_1
                        updated[b] = w_out_2
                        return updated, cand, True
    return current, current_count, False


def max_distortion_local_search(
    assignment: BipartiteAssignment,
    num_byzantine: int,
    seed: int | np.random.Generator | None = 0,
    restarts: int = 12,
    max_rounds: int = 60,
    use_pair_swaps: bool = True,
) -> DistortionResult:
    """Greedy construction plus 1-swap / 2-swap hill climbing with restarts.

    The search starts from the deterministic greedy set and from
    ``restarts - 1`` randomized-greedy sets (ties broken randomly), runs
    best-improvement single-swap hill climbing on each, and escapes single-swap
    local optima with a first-improvement pair swap.  On every paper instance
    where the exhaustive optimum is computable, this heuristic recovers it
    (validated by the tests and the benchmark harness).
    """
    q = _check_q(assignment, num_byzantine)
    if q == 0:
        return DistortionResult(0, 0.0, (), 0, "local_search", True, _gamma_or_nan(assignment, 0))
    rng = as_generator(seed)
    H = assignment.biadjacency.astype(np.int64)
    K, f = H.shape
    threshold = majority_threshold(assignment.replication)

    def evaluate(indices: np.ndarray) -> int:
        return _corrupted_count_from_copy_counts(H[indices].sum(axis=0), threshold)

    greedy = max_distortion_greedy(assignment, q)
    best_set = np.asarray(greedy.byzantine_workers, dtype=np.int64)
    best_count = greedy.c_max

    starts: list[np.ndarray] = [best_set.copy()]
    for _ in range(max(0, restarts - 1)):
        starts.append(_randomized_greedy_set(H, q, threshold, rng))

    for start in starts:
        current = start.copy()
        current_count = evaluate(current)
        while True:
            current, current_count = _hill_climb_single_swaps(
                H, current, current_count, threshold, max_rounds
            )
            if not use_pair_swaps or q < 2 or K - q < 2:
                break
            current, current_count, improved = _hill_climb_pair_swap_once(
                H, current, current_count, threshold
            )
            if not improved:
                break
        if current_count > best_count:
            best_count = current_count
            best_set = current.copy()

    return DistortionResult(
        c_max=int(best_count),
        epsilon=best_count / f,
        byzantine_workers=tuple(int(w) for w in best_set),
        num_byzantine=q,
        method="local_search",
        exact=False,
        gamma=_gamma_or_nan(assignment, q),
    )


def max_distortion(
    assignment: BipartiteAssignment,
    num_byzantine: int,
    method: str = "auto",
    exhaustive_limit: int = 2_000_000,
    seed: int | np.random.Generator | None = 0,
) -> DistortionResult:
    """Dispatch to the appropriate ``c_max`` optimizer.

    ``method="auto"`` runs the exhaustive search when the number of Byzantine
    sets ``C(K, q)`` does not exceed ``exhaustive_limit`` and falls back to
    the local-search heuristic otherwise (mirroring the paper, which reports
    exhaustive numbers only where tractable).
    """
    q = _check_q(assignment, num_byzantine)
    if method == "exhaustive":
        return max_distortion_exhaustive(assignment, q)
    if method == "greedy":
        return max_distortion_greedy(assignment, q)
    if method == "local_search":
        return max_distortion_local_search(assignment, q, seed=seed)
    if method != "auto":
        raise ConfigurationError(
            f"unknown method {method!r}; expected auto, exhaustive, greedy or local_search"
        )
    if math.comb(assignment.num_workers, q) <= exhaustive_limit:
        return max_distortion_exhaustive(assignment, q)
    return max_distortion_local_search(assignment, q, seed=seed)


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
    method: str = "auto",
    exhaustive_limit: int = 2_000_000,
    seed: int | np.random.Generator | None = 0,
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
        result = max_distortion(
            assignment, q, method=method, exhaustive_limit=exhaustive_limit, seed=seed
        )
        rows.append(
            {
                "q": int(q),
                "c_max": int(result.c_max),
                "epsilon_byzshield": result.epsilon,
                "epsilon_baseline": BaselineAssignment.worst_case_epsilon(q, K),
                "epsilon_frc": FRCAssignment.worst_case_epsilon(q, K, r),
                "gamma": result.gamma,
                "exact": bool(result.exact),
            }
        )
    return rows
