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
holds the rule by construction: it is read-only except while
:meth:`VoteTensor.write_slots` or :meth:`VoteTensor.fill_slots` fills the
fresh rows it just took, so a write that bypasses the slot API
(``tensor._store[0] = x``) raises NumPy's ``ValueError``.
:meth:`override_table` exposes the table read-only; the exact vote uses it
to compare and hash each distinct payload row once.

What leaves the vote is copy-on-write too: :meth:`VoteTensor.select_slots`
names one slot per file and returns a :class:`RowSelection` — the shared
base plus a store row id for each file that does not read its base row —
instead of gathering an ``(f, d)`` matrix to change two rows of it, or even
copying those two rows: the store is write-once, so a reference to it is
safe.
"""

from __future__ import annotations

import contextlib
from typing import Callable

import numpy as np

from repro.core.backend import ensure_float
from repro.exceptions import ConfigurationError
from repro.graphs.bipartite import BipartiteAssignment
from repro.utils.arrays import finite_stand_ins

__all__ = ["VoteTensor", "RowSelection"]

#: coordinates per row gather of :meth:`RowSelection.lanes` on a selection
#: that leaves base rows out: Bulyan's 512-wide blocks (``take()`` of its
#: selected rows) are gathered whole, as before, and wider lanes in
#: ``(n, 512)`` slices, 48 KiB at float32 with 24 rows where a 1024-wide
#: block took 96 KiB.  The median's lanes, timed below, now read every base
#: row (``per_base_row``) and gather nothing.  Per 11,274-wide sweep, min of
#: 60 interleaved, 2-core Xeon, whole-block gather against these slices:
#: 0.14-0.16 ms both on float32 lanes 1024 wide with one or three of 25 rows
#: out, 0.19 vs 0.20 ms on Bulyan's float64 ``take()`` of 19 scattered rows.
#: 256-wide slices (24 KiB) took 0.17-0.18 and 0.21 ms, and copying runs of
#: consecutive rows 0.13, 0.22 and 0.50 ms.
_GATHER_COLUMNS = 512


class RowSelection:
    """A read-only ``(n, d)`` matrix held as a shared base plus ``k`` row references.

    Row ``i`` is ``store[row_ids[j]]`` where ``files[j] == i``, and
    ``base[rows[i]]`` everywhere else.  This is what a round's majority vote
    returns: after the vote at most ``c_max`` of the ``f`` winners differ
    from the honest gradient (the paper's bound, when nothing arrives late),
    so the winners are the round's honest matrix
    plus, for each file it out-voted, the id of the winning row in the
    round's write-once payload store.  Neither is copied: a colluding
    payload that wins ``c_max`` files is one stored row referenced
    ``c_max`` times, and a file with no winner (no copy arrived) is left
    out through ``rows`` rather than by gathering the base rows that stay.
    A plain matrix is the ``k = 0`` case.

    Readers stream it: :meth:`lanes` fills a transposed coordinate block
    for the lane kernels.  :meth:`densified` is the one place the ``(n, d)``
    matrix is built, for the rules that need all of it at once.  Those two
    are the only places a referenced row is read; :meth:`take` narrows a
    selection to some of its rows without reading any.

    Parameters
    ----------
    base:
        Float matrix, referenced through a read-only view.
    files:
        ``(k,)`` distinct row indices that do not read the base.
    row_ids:
        ``(k,)`` rows of ``store`` they read, aligned with ``files``.
    store:
        ``(m, d)`` rows of ``base``'s dtype, referenced through a read-only
        view (default: none, so nothing can be patched).
    rows:
        ``(n,)`` rows of ``base`` the selection reads, in order (default:
        every row).
    """

    __slots__ = ("base", "files", "row_ids", "store", "rows", "_patches")

    def __init__(
        self,
        base: np.ndarray,
        files: np.ndarray | None = None,
        row_ids: np.ndarray | None = None,
        store: np.ndarray | None = None,
        rows: np.ndarray | None = None,
    ) -> None:
        if base.ndim != 2:
            raise ConfigurationError(
                f"a row selection's base must be (n, d), got ndim={base.ndim}"
            )
        if files is None:
            files = row_ids = np.empty(0, dtype=np.int64)
        if store is None:
            store = base[:0]
        files = np.asarray(files, dtype=np.int64)
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if store.ndim != 2 or store.shape[1] != base.shape[1] or store.dtype != base.dtype:
            raise ConfigurationError(
                f"the store must hold (m, {base.shape[1]}) {base.dtype} rows, "
                f"got {store.shape} {store.dtype}"
            )
        if row_ids.shape != files.shape or np.any((row_ids < 0) | (row_ids >= len(store))):
            raise ConfigurationError(
                f"need one row id in [0, {len(store)}) per patched file, "
                f"got {row_ids.tolist()} for files {files.tolist()}"
            )
        self.base = base.view()
        self.base.setflags(write=False)
        self.files = files
        self.row_ids = row_ids
        self.store = store.view()
        self.store.setflags(write=False)
        self.rows = None if rows is None else np.asarray(rows, dtype=np.int64)
        self._patches = list(zip(files.tolist(), row_ids.tolist()))

    @classmethod
    def of(cls, votes: "np.ndarray | RowSelection") -> "RowSelection":
        """``votes`` itself, or a plain ``(n, d)`` matrix as its own base."""
        return votes if isinstance(votes, cls) else cls(votes)

    @property
    def shape(self) -> tuple[int, int]:
        """The ``(n, d)`` shape of the matrix this stands for."""
        return self.base.shape if self.rows is None else (self.rows.size, self.base.shape[1])

    @property
    def dtype(self) -> np.dtype:
        """Working float dtype of every row."""
        return self.base.dtype

    @property
    def nbytes(self) -> int:
        """Logical size ``n·d·itemsize``.  What the selection itself holds is
        two ``(k,)`` index vectors: the base and the store are references."""
        n, d = self.shape
        return n * d * self.dtype.itemsize

    def take(self, indices) -> "RowSelection":
        """Rows ``indices`` (distinct) of this selection, in that order, as a
        selection of the same base and store: nothing is read or copied."""
        indices = np.asarray(indices, dtype=np.int64)
        patches = dict(self._patches)
        files = [k for k, i in enumerate(indices.tolist()) if i in patches]
        return RowSelection(
            self.base,
            files,
            [patches[int(indices[k])] for k in files],
            self.store,
            indices if self.rows is None else self.rows[indices],
        )

    def lanes(
        self,
        lo: int,
        hi: int,
        out: np.ndarray,
        clamp_non_finite: bool = False,
        per_base_row: bool = False,
    ) -> None:
        """Fill ``out`` — ``(hi - lo, n)`` — with coordinates ``[lo, hi)`` transposed.

        A coordinate's ``n`` votes become adjacent: one strided copy of the
        base block, then ``k`` column writes straight from the store's rows,
        so nothing but ``out`` is written, however many files a stored row
        wins.  A selection that leaves base rows out (abstaining files,
        :meth:`take`) gathers its rows :data:`_GATHER_COLUMNS` coordinates at
        a time, so the one temporary is at most an ``(n, _GATHER_COLUMNS)``
        slice, not a copy of a wider ``(n, hi - lo)`` block.  ``clamp_non_finite`` then
        gives the block, in ``out``, the stand-ins of
        :func:`~repro.utils.arrays.finite_stand_ins` — the one place a
        streaming rule's lanes are clamped.

        With ``per_base_row``, ``out`` has one lane per *base* row instead,
        ``(hi - lo, len(base))``, for a kernel that does not read the votes'
        order: the whole base block is one strided copy with no gather, each
        vote sits in its base row's lane, and the lanes of the base rows the
        selection leaves out read ``-inf`` (after the clamp), below every
        vote, so the votes' rank ``k`` is the lanes' rank ``k + m`` for
        ``m`` rows left out.
        """
        if self.rows is None or per_base_row:
            np.copyto(out, self.base[:, lo:hi].T)
        else:
            for a in range(lo, hi, _GATHER_COLUMNS):
                b = min(a + _GATHER_COLUMNS, hi)
                np.copyto(out[a - lo : b - lo], self.base[self.rows, a:b].T)
        lane_of = self.rows if per_base_row else None
        for file, row in self._patches:
            out[:, file if lane_of is None else lane_of[file]] = self.store[row, lo:hi]
        if clamp_non_finite:
            finite_stand_ins(out, copy=False)
        if lane_of is not None:
            left_out = np.ones(self.base.shape[0], dtype=bool)
            left_out[lane_of] = False
            out[:, left_out] = -np.inf

    def densified(self) -> np.ndarray:
        """The read-only ``(n, d)`` matrix: the base itself when nothing is
        patched or left out (no copy), otherwise one copy, patched row by row
        from the store."""
        if self.rows is None and not self.files.size:
            return self.base
        matrix = self.base.copy() if self.rows is None else self.base[self.rows]
        for file, row in self._patches:
            matrix[file] = self.store[row]
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

    __slots__ = ("workers", "byzantine_mask", "_base", "_slot_map", "_store")

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
        write to the same slot still count — they stay allocated.  The store
        holds exactly these rows: its length is this count.
        """
        return self._store.shape[0]

    # -- slot access ---------------------------------------------------------
    @contextlib.contextmanager
    def _fresh_rows(self, count: int):
        """Row ids of ``count`` newly allocated payload rows, writable inside the block.

        Rows are append-only: a stored row is never handed out twice, which
        is what lets any number of slots reference it.  A grown store is a
        new array; views of the old one keep their bytes.  It grows to
        exactly the rows written: a round writes it one to three times, too
        few for spare capacity to be used (DESIGN.md, "Copy-on-write
        replication").  The store is writable only inside this block, whose
        caller fills exactly the rows it was handed.
        """
        held = self._store.shape[0]
        grown = np.empty((held + count, self.dim), dtype=self._store.dtype)
        grown[:held] = self._store
        self._store = grown
        try:
            yield np.arange(held, held + count, dtype=np.int64)
        finally:
            grown.setflags(write=False)

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
        with self._fresh_rows(1 if shared else files.size) as ids:
            self._store[ids] = rows
        self._slot_map[files, slots] = ids

    def fill_slots(
        self, files, slots, fill: Callable[[np.ndarray, np.ndarray], None]
    ) -> None:
        """Rewrite the given (file, slot) votes one at a time, each into a fresh row.

        ``fill(current, row)`` is called once per pair, in the given order,
        with the pair's payload before this call as a read-only ``(d,)``
        view and the pair's own fresh store row, a writable ``(d,)`` view in
        the working dtype that ``fill`` must write in full; what it returns
        is ignored.  The scratch a per-slot rewrite holds is then whatever
        ``fill`` holds while it writes the row in place — a block, for the
        noise corruption — not a new payload row, nor an ``(m, d)`` matrix
        beside the rows it stores.
        """
        files = np.asarray(files, dtype=np.int64).ravel()
        slots = np.asarray(slots, dtype=np.int64).ravel()
        if files.size == 0:
            return
        current = self._slot_map[files, slots]
        with self._fresh_rows(files.size) as ids:
            for file, row, into in zip(files, current, ids):
                source = self._store[row] if row >= 0 else self._base[file]
                source.setflags(write=False)  # a view of a writable store
                fill(source, self._store[into])
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

    def scale_slots(self, files, slots, factor: float) -> None:
        """Multiply the given slots by ``factor`` (read-modify-write into fresh rows)."""
        self.write_slots(files, slots, self.read_slots(files, slots) * factor)

    def zero_slots(self, files, slots) -> None:
        """Zero the given slots (zero-mode corruption): one shared zero row."""
        self.write_slots(files, slots, 0.0)

    def select_slots(self, slots, files=None) -> RowSelection:
        """One slot per file — slot ``slots[j]`` of file ``files[j]`` — as a :class:`RowSelection`.

        ``files`` defaults to every file in order.  No payload is gathered:
        the selection references the honest base for the files whose chosen
        slot reads it, and the payload store by row id for the rest — a row
        shared by many slots stays one row.  The selection survives later
        writes: stored rows and the base are never rewritten, and a grown
        store is a new array, so the view it holds keeps its bytes.
        """
        slots = np.asarray(slots, dtype=np.int64).ravel()
        rows = None if files is None else np.asarray(files, dtype=np.int64).ravel()
        files = np.arange(self.num_files) if rows is None else rows
        if slots.size != files.size:
            raise ConfigurationError(
                f"expected one slot per file ({files.size}), got {slots.size}"
            )
        row_ids = self._slot_map[files, slots]
        patched = np.nonzero(row_ids >= 0)[0]
        # A view of the store, so its holder cannot flip the store writable.
        return RowSelection(self._base, patched, row_ids[patched], self._store[:], rows)

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
        return files, slots, self._slot_map[files, slots], self._store[:]

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
        return f"VoteTensor(f={f}, r={r}, d={d}, payload_rows={self.num_override_rows})"
