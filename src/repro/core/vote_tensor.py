"""Contiguous round representation of the per-(worker, file) returns.

One round's returns — ``r`` copies of each of ``f`` file gradients — are a
:class:`VoteTensor`: three aligned arrays that every stage of the round
(attacks, faults, the event runtime, majority voting, the aggregation
pipelines) reads and writes without per-file Python loops:

* ``values`` — ``(f, r, d)`` float: ``values[i, k]`` is the gradient
  returned for file ``i`` by its ``k``-th assigned worker;
* ``workers`` — ``(f, r)`` int64: ``workers[i, k]`` is that worker's index.
  Every row is strictly increasing (slot order is ascending worker index);
* ``byzantine_mask`` — ``(f, r)`` bool: simulator-side bookkeeping of which
  slots hold adversarial payloads (the PS never reads it).

Copy-on-write replication
-------------------------

Honest replicas of a file are bit-identical by construction (the paper's
exact-voting premise), so the round's ``(f, r, d)`` tensor carries only
``f`` distinct rows until an attack or fault rewrites a slot.
:meth:`VoteTensor.from_honest` therefore builds a *lazy* tensor: one shared
``(f, d)`` base matrix plus a *payload table* — a store of written rows and
an ``(f, r)`` map from slot to row id (``-1`` = the honest base).  A clean
round — and the ``q = 0`` iterations of any attacked run — never copies a
single replica.

The paper's adversary colludes: every Byzantine worker returns the same
crafted vector.  A write whose payload broadcasts over the selection (a
scalar or one ``(d,)`` vector — what the colluding attacks and
:meth:`zero_slots` pass) therefore stores **one** row and points every
selected slot at it.  The aliasing rule that makes this safe: a stored row
is never written again.  Every write — shared, per-slot ``(m, d)``, or the
read-modify-write mutators — takes fresh rows and repoints the slots, so
mutating one slot can never change what another slot reads.
:meth:`override_table` exposes the table read-only; the exact-voting kernel
uses it to compare and hash each distinct payload row once.

Consumers that need the full dense cube can still read :attr:`values`;
doing so materializes the tensor **once** and permanently switches it to
dense mode so subsequent in-place writes through the array are never lost.

What leaves the vote is copy-on-write too: :meth:`VoteTensor.select_slots`
names one slot per file and returns a :class:`RowSelection` — the shared
base plus the few rows that are not base rows — instead of gathering an
``(f, d)`` matrix to change two rows of it.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterator

import numpy as np

from repro.core.backend import ensure_float
from repro.exceptions import ConfigurationError
from repro.graphs.bipartite import BipartiteAssignment

__all__ = ["VoteTensor", "RowSelection"]


class RowSelection:
    """A read-only ``(n, d)`` matrix held as a shared base plus ``k`` patch rows.

    Row ``i`` is ``rows[j]`` where ``files[j] == i`` and ``base[i]``
    everywhere else.  This is what a round's majority vote returns: after
    the vote at most ``c_max`` of the ``f`` winners differ from the honest
    gradient (the paper's bound, when nothing arrives late), so the winners
    are the round's honest matrix — referenced, not copied — plus the
    payloads that out-voted it, the re-voted incomplete files and a zero row
    per file nobody returned.  A plain matrix is the ``k = 0`` case.

    Readers stream it: :meth:`row_runs` feeds
    :func:`~repro.utils.digest.array_digest` the bytes of the dense matrix
    row by row, :meth:`lanes` fills a transposed coordinate block for the
    lane kernels.  :meth:`densified` is the one place the ``(n, d)`` matrix
    is built, for the rules that need all of it at once.

    Parameters
    ----------
    base:
        ``(n, d)`` float matrix, referenced through a read-only view.
    files:
        ``(k,)`` distinct row indices that do not read the base.
    rows:
        ``(k, d)`` replacement rows, aligned with ``files``.
    """

    __slots__ = ("base", "files", "rows")

    def __init__(
        self,
        base: np.ndarray,
        files: np.ndarray | None = None,
        rows: np.ndarray | None = None,
    ) -> None:
        if base.ndim != 2:
            raise ConfigurationError(
                f"a row selection's base must be (n, d), got ndim={base.ndim}"
            )
        if files is None:
            files, rows = np.empty(0, dtype=np.int64), base[:0]
        if rows.shape != (files.size, base.shape[1]) or rows.dtype != base.dtype:
            raise ConfigurationError(
                f"patch rows must be ({files.size}, {base.shape[1]}) {base.dtype}, "
                f"got {rows.shape} {rows.dtype}"
            )
        self.base = base.view()
        self.base.setflags(write=False)
        self.files = files
        self.rows = rows.view()
        self.rows.setflags(write=False)

    @classmethod
    def of(cls, votes: "np.ndarray | RowSelection") -> "RowSelection":
        """``votes`` itself, or a plain ``(n, d)`` matrix as its own base."""
        return votes if isinstance(votes, cls) else cls(votes)

    @property
    def shape(self) -> tuple[int, int]:
        """The ``(n, d)`` shape of the matrix this stands for."""
        return self.base.shape

    @property
    def dtype(self) -> np.dtype:
        """Working float dtype of every row."""
        return self.base.dtype

    @property
    def nbytes(self) -> int:
        """Logical size ``n·d·itemsize``; see ``rows.nbytes`` for what is held."""
        return self.base.nbytes

    def row_runs(self) -> Iterator[tuple[np.ndarray, int]]:
        """The ``n`` rows in order as ``(read-only row view, 1)`` runs.

        Same protocol as :meth:`VoteTensor.row_runs`: the runs concatenate
        to the dense matrix, nothing is gathered.
        """
        patch_of = dict(zip(self.files.tolist(), self.rows))
        for i, row in enumerate(self.base):
            yield patch_of.get(i, row), 1

    def lanes(self, lo: int, hi: int, out: np.ndarray) -> None:
        """Fill ``out`` — ``(hi - lo, n)`` — with coordinates ``[lo, hi)`` transposed.

        A coordinate's ``n`` votes become adjacent: one strided copy of the
        base block, then ``k`` column writes.
        """
        np.copyto(out, self.base[:, lo:hi].T)
        if self.files.size:
            out[:, self.files] = self.rows[:, lo:hi].T

    def densified(self) -> np.ndarray:
        """The read-only ``(n, d)`` matrix: the base itself when nothing is
        patched (no copy), otherwise one patched copy."""
        if not self.files.size:
            return self.base
        matrix = self.base.copy()
        matrix[self.files] = self.rows
        matrix.setflags(write=False)
        return matrix

    def __repr__(self) -> str:  # pragma: no cover - trivial
        n, d = self.shape
        return f"RowSelection(n={n}, d={d}, patched={self.files.size})"


class VoteTensor:
    """One round's worth of (worker, file) gradient returns, densely packed.

    Parameters
    ----------
    values:
        ``(f, r, d)`` float array of returned gradients (``float32`` and
        ``float64`` are kept as-is; any other dtype is coerced to the
        backend default).
    workers:
        ``(f, r)`` int64 matrix of the sending workers; rows must be strictly
        increasing (slot order == ascending worker index).
    byzantine_mask:
        Optional ``(f, r)`` bool bookkeeping mask; defaults to all-honest.
    """

    __slots__ = (
        "workers",
        "byzantine_mask",
        "_dense",
        "_base",
        "_slot_map",
        "_store",
        "_num_rows",
        "_read_only",
    )

    def __init__(
        self,
        values: np.ndarray,
        workers: np.ndarray,
        byzantine_mask: np.ndarray | None = None,
    ) -> None:
        values = np.ascontiguousarray(ensure_float(values))
        workers = np.asarray(workers, dtype=np.int64)
        if values.ndim != 3:
            raise ConfigurationError(
                f"vote tensor values must be (f, r, d), got ndim={values.ndim}"
            )
        if workers.shape != values.shape[:2]:
            raise ConfigurationError(
                f"workers matrix has shape {workers.shape}, expected "
                f"{values.shape[:2]}"
            )
        self.workers = workers
        self.byzantine_mask = self._checked_mask(byzantine_mask)
        self._check_workers()
        self._dense: np.ndarray | None = values
        self._base: np.ndarray | None = None
        self._slot_map: np.ndarray | None = None
        self._store: np.ndarray | None = None
        self._num_rows = 0
        self._read_only = False

    def _check_workers(self) -> None:
        workers = self.workers
        if workers.shape[1] > 1 and not np.all(workers[:, 1:] > workers[:, :-1]):
            raise ConfigurationError(
                "workers matrix rows must be strictly increasing (slot order "
                "is ascending worker index)"
            )

    def _checked_mask(self, byzantine_mask: np.ndarray | None) -> np.ndarray:
        if byzantine_mask is None:
            return np.zeros(self.workers.shape, dtype=bool)
        byzantine_mask = np.asarray(byzantine_mask, dtype=bool)
        if byzantine_mask.shape != self.workers.shape:
            raise ConfigurationError(
                f"byzantine mask has shape {byzantine_mask.shape}, "
                f"expected {self.workers.shape}"
            )
        return byzantine_mask

    # -- basic properties ----------------------------------------------------
    @property
    def num_files(self) -> int:
        """Number of files ``f``."""
        return int(self.workers.shape[0])

    @property
    def replication(self) -> int:
        """Votes per file ``r``."""
        return int(self.workers.shape[1])

    @property
    def dim(self) -> int:
        """Gradient dimensionality ``d``."""
        if self._dense is not None:
            return int(self._dense.shape[2])
        assert self._base is not None
        return int(self._base.shape[1])

    @property
    def shape(self) -> tuple[int, int, int]:
        """The ``(f, r, d)`` shape triple."""
        return (self.num_files, self.replication, self.dim)

    @property
    def dtype(self) -> np.dtype:
        """Working float dtype of the vote payloads."""
        if self._dense is not None:
            return self._dense.dtype
        assert self._base is not None
        return self._base.dtype

    @property
    def nbytes(self) -> int:
        """Logical size ``f·r·d·itemsize`` of the cube, lazy or dense.

        What ``values.nbytes`` would report, without building ``values``;
        see :attr:`override_nbytes` for what a lazy tensor really holds.
        """
        return self.workers.size * self.dim * self.dtype.itemsize

    # -- copy-on-write observables ------------------------------------------
    @property
    def is_lazy(self) -> bool:
        """True while the tensor is still base + overrides (never densified)."""
        return self._dense is None

    @property
    def num_overridden_slots(self) -> int:
        """How many (file, slot) pairs read a written payload, not the base.

        Always 0 for dense tensors; for lazy tensors this counts the slots an
        attack/fault rewrote — the ``q = 0`` fast path keeps it at zero for
        the whole round.  Slots that share one stored row each count; see
        :attr:`num_override_rows` for what is actually allocated.
        """
        if self._dense is not None:
            return 0
        assert self._slot_map is not None
        return int((self._slot_map >= 0).sum())

    @property
    def num_override_rows(self) -> int:
        """Payload rows allocated by writes (0 for dense tensors).

        A payload shared by ``m`` slots is one row; rows orphaned by a later
        write to the same slot still count — they stay allocated.
        """
        return 0 if self._dense is not None else self._num_rows

    @property
    def override_nbytes(self) -> int:
        """Bytes held by the allocated payload rows (0 for dense tensors)."""
        return self.num_override_rows * self.dim * self.dtype.itemsize

    @property
    def values(self) -> np.ndarray:
        """The dense ``(f, r, d)`` cube.

        On a lazy tensor this materializes the replicas **once** and
        permanently switches the tensor to dense mode, so in-place writes
        through the returned array (``tensor.values[mask] = x``) keep
        working exactly as before copy-on-write existed.
        """
        if self._dense is None:
            self._materialize()
        assert self._dense is not None
        return self._dense

    def _materialize(self) -> None:
        assert self._base is not None and self._slot_map is not None
        dense = np.repeat(self._base[:, None, :], self.replication, axis=1)
        idx = self._slot_map
        files, slots = np.nonzero(idx >= 0)
        if files.size:
            assert self._store is not None
            dense[files, slots] = self._store[idx[files, slots]]
        self._dense = dense
        self._base = None
        self._slot_map = None
        self._store = None
        self._num_rows = 0
        self._read_only = False

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_honest(
        cls, assignment: BipartiteAssignment, honest_matrix: np.ndarray
    ) -> "VoteTensor":
        """Replicate the ``(f, d)`` honest gradients into every assigned slot.

        This is what the worker pool produces before any attack runs: each of
        file ``i``'s ``r`` workers returns a bit-identical copy of row ``i``.
        The result is a *lazy* copy-on-write tensor — the honest rows are
        shared, not copied, and per-replica storage appears only for the
        slots an attack or fault rewrites.
        """
        matrix = np.ascontiguousarray(ensure_float(honest_matrix))
        if matrix.ndim != 2:
            raise ConfigurationError(
                f"honest matrix must be (f, d), got ndim={matrix.ndim}"
            )
        if matrix.shape[0] != assignment.num_files:
            raise ConfigurationError(
                f"honest matrix has {matrix.shape[0]} rows, assignment has "
                f"{assignment.num_files} files"
            )
        workers = assignment.worker_slot_matrix()
        tensor = object.__new__(cls)
        tensor.workers = workers
        tensor.byzantine_mask = np.zeros(workers.shape, dtype=bool)
        tensor._dense = None
        tensor._base = matrix
        tensor._slot_map = np.full(workers.shape, -1, dtype=np.int64)
        tensor._store = np.empty((0, matrix.shape[1]), dtype=matrix.dtype)
        tensor._num_rows = 0
        tensor._read_only = False
        return tensor

    # -- slot access (copy-on-write aware) -----------------------------------
    def _fresh_rows(self, count: int) -> np.ndarray:
        """Row ids of ``count`` newly allocated (uninitialized) payload rows.

        Rows are append-only: a stored row is never handed out twice, which
        is what lets any number of slots reference it.
        """
        assert self._store is not None
        if self._read_only:
            raise ConfigurationError(
                "lazy subsets are read-only: they share the parent's payload "
                "store; write through the parent tensor"
            )
        needed = self._num_rows + count
        if needed > self._store.shape[0]:
            capacity = max(needed, 2 * self._store.shape[0])
            grown = np.empty((capacity, self.dim), dtype=self._store.dtype)
            grown[: self._num_rows] = self._store[: self._num_rows]
            self._store = grown
        ids = np.arange(self._num_rows, needed, dtype=np.int64)
        self._num_rows = needed
        return ids

    def write_slots(self, files, slots, rows) -> None:
        """Overwrite the given (file, slot) votes — the vectorized attack path.

        ``rows`` broadcasts against the ``(m, d)`` selection: a scalar fills
        every coordinate, a ``(d,)`` or ``(1, d)`` vector is written to every
        selected slot, an ``(m, d)`` matrix writes one row per slot; any
        other shape raises :class:`ConfigurationError`.  On a lazy tensor a
        broadcast payload is stored once and shared by all selected slots;
        per-slot matrices take one fresh row each.  Stored rows are never
        rewritten and the shared honest base is never touched.
        """
        files = np.asarray(files, dtype=np.int64).ravel()
        slots = np.asarray(slots, dtype=np.int64).ravel()
        if files.size == 0:
            return
        rows = np.asarray(rows)
        if rows.shape not in ((), (self.dim,), (1, self.dim), (files.size, self.dim)):
            raise ConfigurationError(
                f"payload has shape {rows.shape}; expected a scalar, "
                f"({self.dim},), (1, {self.dim}) or ({files.size}, {self.dim})"
            )
        if self._dense is not None:
            self._dense[files, slots] = rows
            return
        assert self._store is not None and self._slot_map is not None
        shared = rows.ndim < 2 or rows.shape[0] == 1
        ids = self._fresh_rows(1 if shared else files.size)
        self._store[ids] = rows
        self._slot_map[files, slots] = ids

    def read_slots(self, files, slots) -> np.ndarray:
        """The ``(m, d)`` payloads of the given (file, slot) pairs (a copy)."""
        return self.read_slots_block(files, slots, 0, self.dim)

    def add_to_slots(self, files, slots, rows) -> None:
        """Add ``rows`` to the given slots (read-modify-write, COW aware)."""
        files = np.asarray(files, dtype=np.int64).ravel()
        slots = np.asarray(slots, dtype=np.int64).ravel()
        if files.size == 0:
            return
        if self._dense is not None:
            self._dense[files, slots] += rows
            return
        self.write_slots(files, slots, self.read_slots(files, slots) + rows)

    def scale_slots(self, files, slots, factor: float) -> None:
        """Multiply the given slots by ``factor`` (read-modify-write, COW aware)."""
        files = np.asarray(files, dtype=np.int64).ravel()
        slots = np.asarray(slots, dtype=np.int64).ravel()
        if files.size == 0:
            return
        if self._dense is not None:
            self._dense[files, slots] *= factor
            return
        self.write_slots(files, slots, self.read_slots(files, slots) * factor)

    def zero_slots(self, files, slots) -> None:
        """Zero the given slots (crash/timeout faults), COW aware."""
        self.write_slots(files, slots, 0.0)

    def select_slots(self, slots) -> RowSelection:
        """One slot per file — ``values[i, slots[i]]`` — as a :class:`RowSelection`.

        Nothing of size ``(f, d)`` is gathered: the selection references the
        honest base (slot 0's rows of a dense tensor) and copies only the
        rows of the files whose chosen slot holds a written payload.  A
        lazy tensor's selection survives later writes (stored rows and the
        base are never rewritten); a dense tensor's views its cube.
        """
        slots = np.asarray(slots, dtype=np.int64).ravel()
        if slots.size != self.num_files:
            raise ConfigurationError(
                f"expected one slot per file ({self.num_files}), got {slots.size}"
            )
        if self._dense is not None:
            base = self._dense[:, 0, :]
            files = np.nonzero(slots)[0]
        else:
            assert self._base is not None and self._slot_map is not None
            base = self._base
            files = np.nonzero(self._slot_map[np.arange(slots.size), slots] >= 0)[0]
        return RowSelection(base, files, self.read_slots(files, slots[files]))

    def override_table(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The payload table: ``(files, slots, row_ids, payload_rows)``.

        Only defined for lazy tensors.  ``files`` / ``slots`` list every
        overridden (file, slot) pair in row-major order, ``row_ids[j]`` is
        the row of ``payload_rows`` pair ``j`` reads, and ``payload_rows`` is
        a read-only view of the store.  Slots written with one shared payload
        carry the same row id, so the exact-voting kernel compares and
        hashes each distinct row once — without materializing any replica.
        """
        if self._dense is not None:
            raise ConfigurationError(
                "override_table() is only defined for lazy (copy-on-write) "
                "tensors"
            )
        assert self._slot_map is not None
        files, slots = np.nonzero(self._slot_map >= 0)
        return files, slots, self._slot_map[files, slots], self._payload_rows()

    def _payload_rows(self) -> np.ndarray:
        """Read-only view of the allocated rows of the payload store."""
        assert self._store is not None
        payload_rows = self._store[: self._num_rows]
        payload_rows.setflags(write=False)
        return payload_rows

    def row_runs(self) -> Iterator[tuple[np.ndarray, int]]:
        """Iterate the cube's ``f·r`` rows in C order as ``(row, repeats)`` runs.

        ``row`` is a read-only ``(d,)`` view of where the row lives — the
        honest base, the payload store, or the dense cube — and stands for
        ``repeats`` consecutive identical slots of one file; the runs
        concatenate to ``values.reshape(f * r, d)``.  Nothing is gathered or
        copied and a lazy tensor stays lazy: the trace digest hashes a round
        from here, doing its per-row work once per run.  Rows orphaned by a
        second write to the same slot are never reached.
        """
        if self._dense is not None:
            rows = self._dense.reshape(self.workers.size, self.dim)
            rows.setflags(write=False)
            for row in rows:
                yield row, 1
            return
        assert self._slot_map is not None
        base, store = self.base_rows(), self._payload_rows()
        for file, row_ids in enumerate(self._slot_map.tolist()):
            for row_id, run in groupby(row_ids):
                yield (base[file] if row_id < 0 else store[row_id]), len(list(run))

    def touched_files(self) -> np.ndarray:
        """Sorted file indices with at least one overridden slot.

        Dense tensors report every file (any slot may have been written
        through :attr:`values`); on lazy tensors these are exactly the
        attacked/faulted files.
        """
        if self._dense is not None:
            return np.arange(self.num_files, dtype=np.int64)
        assert self._slot_map is not None
        return np.nonzero((self._slot_map >= 0).any(axis=1))[0]

    def materialize_files(self, files) -> np.ndarray:
        """Dense ``(t, r, d)`` sub-tensor of the given files (always a copy)."""
        files = np.asarray(files, dtype=np.int64).ravel()
        if self._dense is not None:
            return self._dense[files]
        r = self.replication
        rows = self.read_slots(np.repeat(files, r), np.tile(np.arange(r), files.size))
        return rows.reshape(files.size, r, self.dim)

    def base_rows(self) -> np.ndarray:
        """Read-only view of the shared honest base (lazy tensors only)."""
        if self._base is None:
            raise ConfigurationError(
                "base_rows() is only defined for lazy (copy-on-write) tensors"
            )
        view = self._base.view()
        view.setflags(write=False)
        return view

    # -- coordinate-block views (blockwise kernels) --------------------------
    def base_block(self, lo: int, hi: int) -> np.ndarray:
        """Read-only ``(f, hi - lo)`` view of base columns ``[lo, hi)``.

        Lazy tensors only.  The blockwise vote kernels stream coordinate
        blocks through a fixed workspace; this is the zero-copy source for
        the honest side of each block comparison.
        """
        if self._base is None:
            raise ConfigurationError(
                "base_block() is only defined for lazy (copy-on-write) tensors"
            )
        view = self._base[:, lo:hi]
        view.setflags(write=False)
        return view

    def read_slots_block(self, files, slots, lo: int, hi: int) -> np.ndarray:
        """``(m, hi - lo)`` coordinate block of the given (file, slot) pairs.

        The blockwise counterpart of :meth:`read_slots`: only columns
        ``[lo, hi)`` of each selected row are gathered, so peak memory is
        O(m · block) no matter how large ``d`` grows.  Every row is gathered
        once, from where it lives (the payload store or the base).
        """
        files = np.asarray(files, dtype=np.int64).ravel()
        slots = np.asarray(slots, dtype=np.int64).ravel()
        full_width = lo <= 0 and hi >= self.dim
        if self._dense is not None:
            if full_width:
                return self._dense[files, slots]
            return self._dense[files, slots, lo:hi]
        assert self._base is not None and self._slot_map is not None
        assert self._store is not None
        # Plain row indexing at full width: mixed ``[rows, lo:hi]`` indexing
        # takes NumPy's slower general gather.
        base = self._base if full_width else self._base[:, lo:hi]
        idx = self._slot_map[files, slots]
        overridden = idx >= 0
        if not overridden.any():
            return base[files]
        store = self._store if full_width else self._store[:, lo:hi]
        if overridden.all():
            return store[idx]
        out = np.empty((files.size, base.shape[1]), dtype=base.dtype)
        honest = ~overridden
        out[honest] = base[files[honest]]
        out[overridden] = store[idx[overridden]]
        return out

    def slot_subset(self, files, slots) -> "VoteTensor":
        """Sub-tensor of ``files`` × ``slots`` — a group's share of the round.

        ``files`` selects rows and ``slots`` selects vote columns (the same
        columns for every selected file).  Lazy tensors stay lazy: the
        subset shares the override store and only gathers the selected base
        rows and slot-map entries, so no replica cube is ever built.  The
        hierarchical topology uses this to hand each group its local
        sub-VoteTensor without densifying.  A lazy subset is read-only:
        writing through it would allocate rows in a store the parent also
        allocates from, so every write raises :class:`ConfigurationError`.
        """
        files = np.asarray(files, dtype=np.int64).ravel()
        slots = np.asarray(slots, dtype=np.int64).ravel()
        workers = self.workers[np.ix_(files, slots)]
        mask = self.byzantine_mask[np.ix_(files, slots)]
        if self._dense is not None:
            return VoteTensor(self._dense[np.ix_(files, slots)], workers, mask)
        assert self._base is not None and self._slot_map is not None
        assert self._store is not None
        all_files = files.size == self.num_files and bool(
            np.all(files == np.arange(self.num_files))
        )
        sub = object.__new__(VoteTensor)
        sub.workers = workers
        sub.byzantine_mask = mask
        sub._dense = None
        sub._base = self._base if all_files else np.ascontiguousarray(self._base[files])
        sub._slot_map = np.ascontiguousarray(self._slot_map[np.ix_(files, slots)])
        sub._store = self._store
        sub._num_rows = self._num_rows
        sub._read_only = True
        return sub

    # -- mutation ------------------------------------------------------------
    def slot_of(self, file: int, worker: int) -> int:
        """Slot index ``k`` of ``worker`` in ``file``'s row (binary search)."""
        row = self.workers[file]
        k = int(np.searchsorted(row, worker))
        if k >= row.size or row[k] != worker:
            raise ConfigurationError(
                f"worker {worker} is not assigned file {file}"
            )
        return k

    def set_vote(self, file: int, worker: int, vector: np.ndarray) -> None:
        """Overwrite the vote of ``(worker, file)`` — the attack scatter path."""
        vec = ensure_float(vector).ravel()
        if vec.size != self.dim:
            raise ConfigurationError(
                f"vote has dimension {vec.size}, expected {self.dim}"
            )
        slot = self.slot_of(file, worker)
        self.write_slots(
            np.array([file], dtype=np.int64), np.array([slot], dtype=np.int64), vec
        )

    def mark_byzantine(self, byzantine_workers) -> None:
        """Set the bookkeeping mask to the slots owned by these workers."""
        byz = np.asarray(sorted(int(w) for w in byzantine_workers), dtype=np.int64)
        if byz.size == 0:
            self.byzantine_mask[:] = False
        else:
            self.byzantine_mask[:] = np.isin(self.workers, byz)

    # -- misc ----------------------------------------------------------------
    def copy(self) -> "VoteTensor":
        """Deep copy (values, workers view is shared — it is read-only).

        A lazy tensor stays lazy: the clone shares the immutable honest base
        and copies only the override bookkeeping, so copying a clean round
        still costs O(f·r) instead of O(f·r·d).
        """
        if self._dense is not None:
            return VoteTensor(self._dense.copy(), self.workers, self.byzantine_mask.copy())
        assert self._base is not None and self._slot_map is not None
        assert self._store is not None
        clone = object.__new__(VoteTensor)
        clone.workers = self.workers
        clone.byzantine_mask = self.byzantine_mask.copy()
        clone._dense = None
        clone._base = self._base
        clone._slot_map = self._slot_map.copy()
        clone._store = self._store[: self._num_rows].copy()
        clone._num_rows = self._num_rows
        clone._read_only = False
        return clone

    def __repr__(self) -> str:  # pragma: no cover - trivial
        f, r, d = self.shape
        mode = "lazy" if self.is_lazy else "dense"
        return f"VoteTensor(f={f}, r={r}, d={d}, {mode})"
