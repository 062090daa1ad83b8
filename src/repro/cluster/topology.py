"""Hierarchical two-level aggregation: worker groups + a root merge.

Flat majority voting makes the parameter server touch every one of the
``f x r`` replica payloads in a single kernel invocation.  At large
replication this is both a wall-clock and a peak-memory problem: the flat
dense kernel materializes an ``O(f . r . d)`` comparison temporary, and a
single aggregator must hold the whole round.  A *group topology* splits the
``K`` workers into ``G`` groups, votes each group's sub-round locally
(level 1), and forwards only each group's tiny per-file class histogram —
``(anchor slot, count)`` pairs, typically one per file — to a root
aggregator (level 2) that merges histograms by payload content and picks the
global winner.

Bit-identity with the flat path
-------------------------------

The exact-equality vote has a crucial compositional property: the global
bit-equality classes of a file's ``r`` replicas are the disjoint union of
each group's local classes, so merging local histograms by *content* (not by
local winner — a group's runner-up may be the global winner) recovers the
exact global class sizes, and a class's smallest global slot is always one
of its local anchors.  The root therefore resolves the same winner, count
and tie-break (largest class, then smallest slot) as the flat kernel —
:func:`hierarchical_majority_vote` is property-tested bit-identical against
:func:`~repro.aggregation.majority.majority_vote_votetensor` and is *not* an
approximation.

Forwarding full histograms instead of single local winners matters: with
payloads ``A, B, B`` split as groups ``{A, B} | {B}``, winner-only
forwarding would lose one ``B`` vote and flip the aggregate.

Per-level adversary budgets
---------------------------

:class:`GroupTopology` carries two tolerated-adversary budgets: ``q_group``
(per group) and ``q_root`` (among the group leaders).  Because the
hierarchical vote is bit-identical to the flat vote, robustness *composes*:
any placement of ``q_total = q_group * num_groups`` adversaries that
respects the per-group budget yields the same aggregate as the flat path,
and recovers the honest gradient whenever the flat majority bound holds —
the property test in ``tests/test_topology.py`` exercises exactly this.

Memory
------

Dense tensors run the existing labeling kernel per group on column bands,
and both levels stream coordinate blocks when ``block_size`` is set, so the
peak temporary is ``O(f . r_g . block)`` for a group's local replication
``r_g ~ r / G`` instead of the flat kernel's ``O(f . r . d)``.  Lazy
copy-on-write tensors never densify a replica cube: their payloads are
classed once into an ``(f, r)`` integer content-id matrix
(:func:`~repro.aggregation.majority.override_content_ids`, ``O(M . block)``
for ``M`` distinct (payload row, file) pairs) and both levels are histogram
merging on those integers.
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.majority import (
    _accumulate_hashes,
    _bit_label_matrix,
    _class_sizes,
    _labels_from_ids,
    _reference_exact_majority,
    _rows_equal,
    majority_vote_votetensor,
    override_content_ids,
    validate_block_size,
)
from repro.core.backend import bit_view_dtype
from repro.exceptions import AggregationError, ConfigurationError

__all__ = ["GroupTopology", "hierarchical_majority_vote"]


class GroupTopology:
    """Contiguous balanced partition of the workers into voting groups.

    Parameters
    ----------
    num_workers:
        Cluster size ``K``.
    num_groups:
        Number of groups ``G`` (``1 <= G <= K``).  Workers are split into
        contiguous, balanced groups (sizes differ by at most one), matching
        the rack/zone locality a real deployment would exploit.
    q_group:
        Tolerated adversaries *per group* (level-1 budget).
    q_root:
        Tolerated adversarial group leaders at the root (level-2 budget).
    """

    def __init__(
        self,
        num_workers: int,
        num_groups: int,
        q_group: int = 0,
        q_root: int = 0,
    ) -> None:
        num_workers = int(num_workers)
        num_groups = int(num_groups)
        if num_workers < 1:
            raise ConfigurationError(
                f"num_workers must be positive, got {num_workers}"
            )
        if not 1 <= num_groups <= num_workers:
            raise ConfigurationError(
                f"num_groups must be in [1, {num_workers}], got {num_groups}"
            )
        if q_group < 0 or q_root < 0:
            raise ConfigurationError(
                f"adversary budgets must be non-negative, got "
                f"q_group={q_group}, q_root={q_root}"
            )
        self.num_workers = num_workers
        self.num_groups = num_groups
        self.q_group = int(q_group)
        self.q_root = int(q_root)
        members = np.array_split(np.arange(num_workers, dtype=np.int64), num_groups)
        self._members = tuple(np.ascontiguousarray(m) for m in members)
        self.group_of = np.empty(num_workers, dtype=np.int64)
        for g, workers in enumerate(self._members):
            self.group_of[workers] = g

    @property
    def q_total(self) -> int:
        """Total tolerated adversaries across all groups."""
        return self.q_group * self.num_groups

    def workers_of_group(self, group: int) -> np.ndarray:
        """The (sorted, contiguous) worker indices of one group."""
        if not 0 <= group < self.num_groups:
            raise ConfigurationError(
                f"group must be in [0, {self.num_groups}), got {group}"
            )
        return self._members[group].copy()

    def slot_groups(self, workers: np.ndarray) -> np.ndarray:
        """Group id of every slot of an ``(f, r)`` worker-slot matrix."""
        workers = np.asarray(workers)
        if workers.size and (
            workers.min() < 0 or workers.max() >= self.num_workers
        ):
            raise ConfigurationError(
                f"worker indices out of range for a {self.num_workers}-worker "
                "topology"
            )
        return self.group_of[workers]

    def group_counts(self, byzantine_workers) -> np.ndarray:
        """``(G,)`` adversary count per group for a worker set."""
        workers = np.asarray(sorted(set(int(w) for w in byzantine_workers)), dtype=np.int64)
        if workers.size and (workers.min() < 0 or workers.max() >= self.num_workers):
            raise ConfigurationError(
                f"byzantine worker out of range for a {self.num_workers}-worker topology"
            )
        return np.bincount(self.group_of[workers], minlength=self.num_groups)

    def admits(self, byzantine_workers) -> bool:
        """True when every group's adversary count is within ``q_group``."""
        return bool((self.group_counts(byzantine_workers) <= self.q_group).all())

    def describe(self) -> dict[str, int]:
        """Short description used in experiment reports."""
        return {
            "num_workers": self.num_workers,
            "num_groups": self.num_groups,
            "q_group": self.q_group,
            "q_root": self.q_root,
            "q_total": self.q_total,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupTopology):
            return NotImplemented
        return (
            self.num_workers == other.num_workers
            and self.num_groups == other.num_groups
            and self.q_group == other.q_group
            and self.q_root == other.q_root
        )

    def __hash__(self) -> int:
        return hash((self.num_workers, self.num_groups, self.q_group, self.q_root))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"GroupTopology(num_workers={self.num_workers}, "
            f"num_groups={self.num_groups}, q_group={self.q_group}, "
            f"q_root={self.q_root})"
        )


# --------------------------------------------------------------------------- #
# Level 1: per-(file band, group) local class histograms
# --------------------------------------------------------------------------- #
def _dense_band_values(values: np.ndarray, files: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """One group's ``(fc, rc, d)`` sub-cube, as a view when the band is contiguous."""
    if files.size == values.shape[0] and cols.size and int(cols[-1] - cols[0]) == cols.size - 1:
        return values[:, int(cols[0]) : int(cols[0]) + cols.size, :]
    return values[np.ix_(files, cols)]


def _cell_histogram(labels, cids, files, cols):
    """One (file band, group) cell's local class histogram from its labels.

    One entry per bit-equality class the group observed for a file:
    ``(file, global anchor slot, member count, content id)`` columns.  The
    content id is exact for lazy tensors (:func:`override_content_ids`);
    dense cells pass zeros and are compared and hashed at the root, and only
    the few that mismatch the file's slot-0 payload.
    """
    sizes = _class_sizes(labels)
    fi, sl = np.nonzero(labels == np.arange(cols.size)[None, :])
    return files[fi], cols[sl], sizes[fi, sl], cids[fi, sl]


# --------------------------------------------------------------------------- #
# Level 2: root merge of the group histograms
# --------------------------------------------------------------------------- #
def hierarchical_majority_vote(
    tensor, topology: GroupTopology, block_size: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Two-level exact majority vote over a :class:`GroupTopology`.

    Level 1 produces each group's per-file local class histogram; level 2
    merges the histograms by payload content.  Lazy copy-on-write tensors
    are classed once by :func:`~repro.aggregation.majority.
    override_content_ids`, after which both levels are integer histogram
    work on the ``(f, r)`` id matrix — no payload is read until the winners
    are gathered.  Dense tensors label each group's column band with the
    flat labeling kernel; at the root, group anchors are compared against
    the file's slot-0 payload and the residual classes (attacked payloads)
    merge by collision-verified 64-bit hash, a verification failure demoting
    the affected file to an exact per-file ``tobytes`` recount, so a hash
    collision can never corrupt the result.

    Returns the same ``(winners, counts)`` as
    :func:`~repro.aggregation.majority.majority_vote_votetensor` with
    ``tolerance=0`` — bit-identical, by the class-decomposition argument in
    the module docstring.  ``block_size`` streams every payload-touching
    stage in coordinate blocks (see the flat kernels).
    """
    block_size = validate_block_size(block_size)
    f, r, d = tensor.shape
    if r == 0:
        raise AggregationError("majority vote needs at least one vote")
    workers = tensor.workers
    if workers.size and (
        int(workers.min()) < 0 or int(workers.max()) >= topology.num_workers
    ):
        raise ConfigurationError(
            f"vote tensor references workers outside the "
            f"{topology.num_workers}-worker topology"
        )
    if d == 0 or r == 1 or topology.num_groups == 1 or f == 0:
        # Degenerate shapes: one group (or one slot) is the flat vote.
        return majority_vote_votetensor(tensor, 0.0, block_size=block_size)

    lazy = bool(getattr(tensor, "is_lazy", False))
    view = bit_view_dtype(tensor.dtype)
    slot_groups = topology.group_of[workers]  # (f, r)
    cells = []

    # ---- level 1: group the files into signature bands (files whose slots
    # map to groups identically), so each (band, group) cell is rectangular.
    signatures, inverse = np.unique(slot_groups, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    cid = override_content_ids(tensor, block_size) if lazy else None
    dense_values = None if lazy else tensor.values  # repro-lint: disable=COW-001 (dense dispatch: .values is a no-copy view for non-lazy tensors)
    for c in range(signatures.shape[0]):
        files = np.nonzero(inverse == c)[0]
        row = signatures[c]
        for g in np.unique(row):
            cols = np.nonzero(row == g)[0]
            if lazy:
                cell_ids = cid[np.ix_(files, cols)]
                labels = _labels_from_ids(cell_ids)
            else:
                labels = _bit_label_matrix(
                    _dense_band_values(dense_values, files, cols), block_size=block_size
                )
                cell_ids = np.zeros_like(labels)
            cells.append(_cell_histogram(labels, cell_ids, files, cols))

    e_file, e_slot, e_count, e_cid = (np.concatenate(col) for col in zip(*cells))

    def rows_bits(files_, slots_):
        return lambda lo, hi: tensor.read_slots_block(files_, slots_, lo, hi).view(view)

    # ---- level 2, phase 1 (dense only): the reference class.  Every group
    # anchor is compared against the file's slot-0 payload, which settles a
    # fully honest round with zero hashing.  Lazy entries already carry exact
    # content ids, so all of them go straight to the merge below.
    best = np.full(f, -1, dtype=np.int64)
    fallback = np.zeros(f, dtype=bool)
    if lazy:
        residual = np.arange(e_file.size)
    else:
        is_ref = e_slot == 0
        class0_count = np.zeros(f, dtype=np.int64)
        class0_count[e_file[is_ref]] = e_count[is_ref]
        nonref = np.nonzero(~is_ref)[0]
        if nonref.size:
            eq_ref = _rows_equal(
                rows_bits(e_file[nonref], e_slot[nonref]),
                rows_bits(e_file[nonref], np.zeros(nonref.size, dtype=np.int64)),
                nonref.size,
                d,
                block_size,
            )
            np.add.at(class0_count, e_file[nonref[eq_ref]], e_count[nonref[eq_ref]])
            residual = nonref[~eq_ref]
        else:
            residual = nonref
        best[:] = class0_count * (r + 1)  # anchored at slot 0, never empty

    # ---- level 2, phase 2: merge the remaining classes by content key — the
    # exact content id (lazy) or a collision-verified hash (dense); the class
    # anchor is its smallest global slot.
    if residual.size:
        rf, rs, rc_ = e_file[residual], e_slot[residual], e_count[residual]
        if lazy:
            rh = e_cid[residual]
        else:
            rh = _accumulate_hashes(rows_bits(rf, rs), residual.size, d, block_size)
        order = np.lexsort((rs, rh, rf))
        sf, sh, ss, sc = rf[order], rh[order], rs[order], rc_[order]
        starts = np.empty(order.size, dtype=bool)
        starts[0] = True
        starts[1:] = (sf[1:] != sf[:-1]) | (sh[1:] != sh[:-1])
        run = np.cumsum(starts) - 1
        first = np.nonzero(starts)[0]
        member = ~starts
        if not lazy and member.any():
            anchor_pos = first[run]
            verified = _rows_equal(
                rows_bits(sf[member], ss[member]),
                rows_bits(sf[anchor_pos[member]], ss[anchor_pos[member]]),
                int(member.sum()),
                d,
                block_size,
            )
            if not verified.all():
                bad = np.zeros(member.size, dtype=bool)
                bad[np.nonzero(member)[0][~verified]] = True
                fallback[np.unique(sf[bad])] = True
        run_count = np.bincount(run, weights=sc).astype(np.int64)
        run_file, run_slot = sf[first], ss[first]
        np.maximum.at(best, run_file, run_count * (r + 1) - run_slot)

    # ---- winner resolution: largest class, smallest slot on ties —
    # the flat kernel's exact tie-break, recovered from the packed score.
    win_count = (best + r) // (r + 1)
    win_slot = win_count * (r + 1) - best
    winners = tensor.read_slots(np.arange(f), win_slot)
    counts = win_count

    fb = np.nonzero(fallback)[0]
    if fb.size:
        mats = tensor.materialize_files(fb)
        for pos, i in enumerate(fb):
            winner, count = _reference_exact_majority(mats[pos])
            winners[i] = winner
            counts[i] = count
    return winners, counts
