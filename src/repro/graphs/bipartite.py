"""The worker-to-file bipartite assignment graph.

:class:`BipartiteAssignment` is the central data structure of the library:
every task-assignment scheme (MOLS, Ramanujan, FRC, random, baseline) produces
one, and every downstream component — the cluster simulator, the distortion
analysis and the majority-vote pipeline — consumes it.

The graph is stored as a dense zero-one bi-adjacency matrix ``H`` of shape
``(K, f)`` where ``H[j, i] = 1`` iff worker ``U_j`` is assigned file ``B_i``
(paper Eq. (4), with rows = workers and columns = files).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import AssignmentError, ConfigurationError

__all__ = ["BipartiteAssignment"]


class BipartiteAssignment:
    """Biregular bipartite worker/file assignment graph.

    Parameters
    ----------
    biadjacency:
        Zero-one matrix of shape ``(num_workers, num_files)``.
    name:
        Human-readable label of the generating scheme (e.g. ``"mols(l=5,r=3)"``).

    The constructor checks that all workers have the same degree ``l``
    (computational load) and all files the same degree ``r`` (replication
    factor), which every scheme in the paper satisfies.
    """

    def __init__(self, biadjacency: np.ndarray, name: str = "custom") -> None:
        H = np.asarray(biadjacency)
        if H.ndim != 2:
            raise ConfigurationError(
                f"biadjacency must be a 2-D matrix, got ndim={H.ndim}"
            )
        if H.size == 0:
            raise ConfigurationError("biadjacency must be non-empty")
        unique_vals = np.unique(H)
        if not np.all(np.isin(unique_vals, (0, 1))):
            raise ConfigurationError("biadjacency entries must be 0 or 1")
        self._H = H.astype(np.int8)
        self.name = str(name)

        worker_degrees = self._H.sum(axis=1)
        file_degrees = self._H.sum(axis=0)
        if np.any(worker_degrees == 0):
            raise AssignmentError("every worker must be assigned at least one file")
        if np.any(file_degrees == 0):
            raise AssignmentError("every file must be assigned to at least one worker")
        if np.unique(worker_degrees).size != 1:
            raise AssignmentError(
                "assignment is not left-regular: worker degrees "
                f"{sorted(set(int(d) for d in worker_degrees))}"
            )
        if np.unique(file_degrees).size != 1:
            raise AssignmentError(
                "assignment is not right-regular: file degrees "
                f"{sorted(set(int(d) for d in file_degrees))}"
            )
        self._load = int(worker_degrees[0])
        self._replication = int(file_degrees[0])

        # Neighborhood cache as tuples for cheap repeated lookups.
        self._files_of_worker: list[tuple[int, ...]] = [
            tuple(int(i) for i in np.nonzero(self._H[j])[0])
            for j in range(self.num_workers)
        ]
        self._worker_slot_matrix: np.ndarray | None = None

    # -- alternative constructors ------------------------------------------
    @classmethod
    def from_worker_files(
        cls,
        worker_files: Sequence[Iterable[int]] | Mapping[int, Iterable[int]],
        num_files: int | None = None,
        name: str = "custom",
    ) -> "BipartiteAssignment":
        """Build the graph from a per-worker list of file indices.

        ``worker_files[j]`` is the collection of files stored by worker ``j``
        (paper notation ``N(U_j)``); this mirrors Tables 2(a)–(c).
        """
        if isinstance(worker_files, Mapping):
            keys = sorted(worker_files)
            if keys != list(range(len(keys))):
                raise ConfigurationError(
                    "worker_files mapping keys must be 0..K-1 without gaps"
                )
            rows = [list(worker_files[k]) for k in keys]
        else:
            rows = [list(files) for files in worker_files]
        if len(rows) == 0:
            raise ConfigurationError("worker_files must contain at least one worker")
        max_file = max((max(r) for r in rows if r), default=-1)
        f = int(num_files) if num_files is not None else max_file + 1
        H = np.zeros((len(rows), f), dtype=np.int8)
        for j, files in enumerate(rows):
            for i in files:
                if not (0 <= i < f):
                    raise ConfigurationError(
                        f"file index {i} out of range [0, {f}) for worker {j}"
                    )
                if H[j, i]:
                    raise AssignmentError(
                        f"worker {j} lists file {i} more than once"
                    )
                H[j, i] = 1
        return cls(H, name=name)

    # -- basic properties ----------------------------------------------------
    @property
    def biadjacency(self) -> np.ndarray:
        """A copy of the zero-one bi-adjacency matrix ``H`` (K x f)."""
        return self._H.copy()

    @property
    def num_workers(self) -> int:
        """Number of workers ``K`` (left vertices)."""
        return int(self._H.shape[0])

    @property
    def num_files(self) -> int:
        """Number of files ``f`` (right vertices)."""
        return int(self._H.shape[1])

    @property
    def computational_load(self) -> int:
        """Per-worker load ``l`` (files per worker)."""
        return self._load

    @property
    def replication(self) -> int:
        """Replication factor ``r`` (workers per file)."""
        return self._replication

    # -- neighborhoods ------------------------------------------------------
    def files_of_worker(self, worker: int) -> tuple[int, ...]:
        """Files assigned to ``worker`` — the paper's ``N(U_j)``."""
        self._check_worker(worker)
        return self._files_of_worker[worker]

    def file_copy_counts(self, workers: Iterable[int]) -> np.ndarray:
        """For each file, the number of copies held inside ``workers``.

        This is the multiset-sum view used by the distortion analysis: a file
        is corrupted by the majority vote exactly when its count here reaches
        ``r' = (r + 1) / 2``.
        """
        idx = np.fromiter((int(w) for w in workers), dtype=np.int64)
        if idx.size == 0:
            return np.zeros(self.num_files, dtype=np.int64)
        if np.any(idx < 0) or np.any(idx >= self.num_workers):
            raise ConfigurationError("worker index out of range")
        if np.unique(idx).size != idx.size:
            raise ConfigurationError("worker set contains duplicates")
        return self._H[idx].sum(axis=0).astype(np.int64)

    def worker_slot_matrix(self) -> np.ndarray:
        """The ``(f, r)`` matrix whose row ``i`` lists the workers holding
        file ``i`` — the paper's ``N(B_{t,i})``.

        Rows are in ascending worker order — the slot layout of the
        :class:`~repro.core.vote_tensor.VoteTensor` round representation.
        The result is cached and read-only.
        """
        if self._worker_slot_matrix is None:
            # nonzero walks H^T row by row: each file's workers, ascending
            workers = np.nonzero(self._H.T)[1].astype(np.int64)
            matrix = workers.reshape(self.num_files, self.replication)
            matrix.setflags(write=False)
            self._worker_slot_matrix = matrix
        return self._worker_slot_matrix

    def worker_file_table(self) -> list[tuple[int, tuple[int, ...]]]:
        """Return ``[(worker, files), ...]`` rows matching the paper's Table 2."""
        return [(j, self._files_of_worker[j]) for j in range(self.num_workers)]

    # -- internals ------------------------------------------------------------
    def _check_worker(self, worker: int) -> None:
        if not (0 <= int(worker) < self.num_workers):
            raise ConfigurationError(
                f"worker index {worker} out of range [0, {self.num_workers})"
            )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"BipartiteAssignment(name={self.name!r}, K={self.num_workers}, "
            f"f={self.num_files}, edges={int(self._H.sum())})"
        )
