"""Contiguous round representation of the per-(worker, file) returns.

One round's returns — ``r`` copies of each of ``f`` file gradients — are a
:class:`VoteTensor`, which every stage of the round (attacks, faults, the
event runtime, majority voting, the aggregation pipelines) reads and writes
through its slot API without per-file Python loops.  Slot ``(i, k)`` is the
gradient file ``i``'s ``k``-th assigned worker returned; ``workers[i, k]``
is that worker (rows strictly increasing) and ``byzantine_mask[i, k]`` is
simulator-side bookkeeping of which slots hold adversarial payloads (the PS
never reads it).

Copy-on-write replication
-------------------------

Honest replicas of a file are bit-identical by construction (the paper's
exact-voting premise), so the round's ``(f, r, d)`` cube carries only ``f``
distinct rows until an attack or fault rewrites a slot.
:meth:`VoteTensor.from_honest` — the one constructor — therefore holds one
shared ``(f, d)`` base matrix plus a *payload table*: a store of written
rows and an ``(f, r)`` map from slot to row id (``-1`` = the honest base).
A clean round — and the ``q = 0`` iterations of any attacked run — never
copies a single replica, and no ``(f, r, d)`` cube is ever built.

The paper's adversary colludes: every Byzantine worker returns the same
crafted vector.  A write whose payload broadcasts over the selection (a
scalar or one ``(d,)`` vector — what the colluding attacks and
:meth:`zero_slots` pass) therefore stores **one** row and points every
selected slot at it.  The aliasing rule that makes this safe: a stored row
is never written again.  Every write — shared, per-slot ``(m, d)``, or the
read-modify-write mutators — takes fresh rows and repoints the slots, so
mutating one slot can never change what another slot reads.  The store
holds the rule by construction: it is read-only except for the one
assignment inside :meth:`VoteTensor.write_slots`, so a write that bypasses
the slot API (``tensor._store[0] = x``) raises NumPy's ``ValueError``.
:meth:`override_table` exposes the table read-only; the exact vote uses it
to compare and hash each distinct payload row once.

What leaves the vote is copy-on-write too: :meth:`VoteTensor.select_slots`
names one slot per file and returns a :class:`RowSelection` — the shared
base plus the few rows that are not base rows — instead of gathering an
``(f, d)`` matrix to change two rows of it.
"""

from __future__ import annotations

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

    Readers stream it: :meth:`lanes` fills a transposed coordinate block
    for the lane kernels.  :meth:`densified` is the one place the ``(n, d)``
    matrix is built, for the rules that need all of it at once.

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
    """One round's worth of (worker, file) gradient returns, copy-on-write.

    Built only by :meth:`from_honest`: the honest ``(f, d)`` matrix is the
    shared base of every slot, and the slot API writes payload rows over it
    (see the module docstring).
    """

    __slots__ = ("workers", "byzantine_mask", "_base", "_slot_map", "_store", "_num_rows")

    @classmethod
    def from_honest(
        cls, assignment: BipartiteAssignment, honest_matrix: np.ndarray
    ) -> "VoteTensor":
        """Replicate the ``(f, d)`` honest gradients into every assigned slot.

        This is what the worker pool produces before any attack runs: each of
        file ``i``'s ``r`` workers returns a bit-identical copy of row ``i``.
        The honest rows are shared, not copied, and per-replica storage
        appears only for the slots an attack or fault rewrites.
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
        tensor = cls.__new__(cls)
        tensor.workers = workers
        tensor.byzantine_mask = np.zeros(workers.shape, dtype=bool)
        tensor._base = matrix
        tensor._slot_map = np.full(workers.shape, -1, dtype=np.int64)
        tensor._store = np.empty((0, matrix.shape[1]), dtype=matrix.dtype)
        tensor._store.setflags(write=False)
        tensor._num_rows = 0
        return tensor

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
        return int(self._base.shape[1])

    @property
    def shape(self) -> tuple[int, int, int]:
        """The ``(f, r, d)`` shape triple."""
        return (self.num_files, self.replication, self.dim)

    @property
    def dtype(self) -> np.dtype:
        """Working float dtype of the vote payloads."""
        return self._base.dtype

    @property
    def nbytes(self) -> int:
        """Logical size ``f·r·d·itemsize`` of the cube this stands for."""
        return self.workers.size * self.dim * self.dtype.itemsize

    # -- copy-on-write observables ------------------------------------------
    @property
    def num_overridden_slots(self) -> int:
        """How many (file, slot) pairs read a written payload, not the base.

        The ``q = 0`` fast path keeps it at zero for the whole round.  Slots
        that share one stored row each count; see :attr:`num_override_rows`
        for what is actually allocated.
        """
        return int((self._slot_map >= 0).sum())

    @property
    def num_override_rows(self) -> int:
        """Payload rows allocated by writes.

        A payload shared by ``m`` slots is one row; rows orphaned by a later
        write to the same slot still count — they stay allocated.
        """
        return self._num_rows

    # -- slot access ---------------------------------------------------------
    def _fresh_rows(self, count: int) -> np.ndarray:
        """Row ids of ``count`` newly allocated (uninitialized) payload rows.

        Rows are append-only: a stored row is never handed out twice, which
        is what lets any number of slots reference it.  A grown store is a
        new read-only array; views of the old one keep their bytes.
        """
        needed = self._num_rows + count
        if needed > self._store.shape[0]:
            capacity = max(needed, 2 * self._store.shape[0])
            grown = np.empty((capacity, self.dim), dtype=self._store.dtype)
            grown[: self._num_rows] = self._store[: self._num_rows]
            grown.setflags(write=False)
            self._store = grown
        ids = np.arange(self._num_rows, needed, dtype=np.int64)
        self._num_rows = needed
        return ids

    def write_slots(self, files, slots, rows) -> None:
        """Overwrite the given (file, slot) votes — the vectorized attack path.

        ``rows`` broadcasts against the ``(m, d)`` selection: a scalar fills
        every coordinate, a ``(d,)`` or ``(1, d)`` vector is written to every
        selected slot, an ``(m, d)`` matrix writes one row per slot; any
        other shape raises :class:`ConfigurationError`.  A broadcast payload
        is stored once and shared by all selected slots; per-slot matrices
        take one fresh row each.  Stored rows are never rewritten and the
        shared honest base is never touched.
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
        shared = rows.ndim < 2 or rows.shape[0] == 1
        ids = self._fresh_rows(1 if shared else files.size)
        # The only write the store ever takes: into rows nobody references yet.
        self._store.setflags(write=True)
        try:
            self._store[ids] = rows
        finally:
            self._store.setflags(write=False)
        self._slot_map[files, slots] = ids

    def read_slots(self, files, slots) -> np.ndarray:
        """The ``(m, d)`` payloads of the given (file, slot) pairs.

        Every row is gathered once, from where it lives (the payload store
        or the base).  The result never aliases the tensor's storage.
        """
        files = np.asarray(files, dtype=np.int64).ravel()
        slots = np.asarray(slots, dtype=np.int64).ravel()
        idx = self._slot_map[files, slots]
        overridden = idx >= 0
        if not overridden.any():
            return self._base[files]
        if overridden.all():
            return self._store[idx]
        out = np.empty((files.size, self.dim), dtype=self.dtype)
        honest = ~overridden
        out[honest] = self._base[files[honest]]
        out[overridden] = self._store[idx[overridden]]
        return out

    def add_to_slots(self, files, slots, rows) -> None:
        """Add ``rows`` to the given slots (read-modify-write into fresh rows)."""
        self.write_slots(files, slots, self.read_slots(files, slots) + rows)

    def scale_slots(self, files, slots, factor: float) -> None:
        """Multiply the given slots by ``factor`` (read-modify-write into fresh rows)."""
        self.write_slots(files, slots, self.read_slots(files, slots) * factor)

    def zero_slots(self, files, slots) -> None:
        """Zero the given slots (crash/timeout faults): one shared zero row."""
        self.write_slots(files, slots, 0.0)

    def select_slots(self, slots) -> RowSelection:
        """One slot per file — slot ``slots[i]`` of file ``i`` — as a :class:`RowSelection`.

        Nothing of size ``(f, d)`` is gathered: the selection references the
        honest base and copies only the rows of the files whose chosen slot
        holds a written payload.  It survives later writes (stored rows and
        the base are never rewritten).
        """
        slots = np.asarray(slots, dtype=np.int64).ravel()
        if slots.size != self.num_files:
            raise ConfigurationError(
                f"expected one slot per file ({self.num_files}), got {slots.size}"
            )
        files = np.nonzero(self._slot_map[np.arange(slots.size), slots] >= 0)[0]
        return RowSelection(self._base, files, self.read_slots(files, slots[files]))

    def override_table(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The payload table: ``(files, slots, row_ids, payload_rows)``.

        ``files`` / ``slots`` list every overridden (file, slot) pair in
        row-major order, ``row_ids[j]`` is the row of ``payload_rows`` pair
        ``j`` reads, and ``payload_rows`` is a read-only view of the store.
        Slots written with one shared payload carry the same row id, so the
        exact vote compares and hashes each distinct row once — without
        materializing any replica.
        """
        files, slots = np.nonzero(self._slot_map >= 0)
        return files, slots, self._slot_map[files, slots], self._store[: self._num_rows]

    def base_rows(self) -> np.ndarray:
        """Read-only view of the shared honest base."""
        view = self._base.view()
        view.setflags(write=False)
        return view

    def mark_byzantine(self, byzantine_workers) -> None:
        """Set the bookkeeping mask to the slots owned by these workers."""
        byz = np.asarray(sorted(int(w) for w in byzantine_workers), dtype=np.int64)
        if byz.size == 0:
            self.byzantine_mask[:] = False
        else:
            self.byzantine_mask[:] = np.isin(self.workers, byz)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        f, r, d = self.shape
        return f"VoteTensor(f={f}, r={r}, d={d}, payload_rows={self._num_rows})"
