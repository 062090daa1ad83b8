"""Hierarchical two-level aggregation: worker groups + a root merge.

Flat majority voting makes the parameter server resolve every one of the
``f x r`` replica slots in a single aggregator, which must hold the whole
round.  A *group topology* splits the ``K`` workers into ``G`` groups,
votes each group's sub-round locally (level 1), and forwards only each
group's tiny per-file class histogram — ``(anchor slot, count)`` pairs,
typically one per file — to a root aggregator (level 2) that merges
histograms by payload content and picks the global winner.

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

The payloads are classed once into an ``(f, r)`` integer content-id matrix
(:func:`~repro.aggregation.majority.override_content_ids`) and both levels
are histogram merging on those integers.  No replica cube is ever built:
classing costs ``O(M . block)`` for ``M`` distinct (payload row, file)
pairs.
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.majority import (
    _class_sizes,
    _labels_from_ids,
    _revote_incomplete,
    _select_winners,
    _winning_slots,
    override_content_ids,
    validate_block_size,
)
from repro.core.vote_tensor import RowSelection
from repro.exceptions import ConfigurationError

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
def _cell_histogram(ids, files, cols):
    """One (file band, group) cell's local class histogram from its ids.

    One entry per bit-equality class the group observed for a file:
    ``(file, global anchor slot, member count, content id)`` columns.
    """
    labels = _labels_from_ids(ids)
    sizes = _class_sizes(labels)
    fi, sl = np.nonzero(labels == np.arange(cols.size)[None, :])
    return files[fi], cols[sl], sizes[fi, sl], ids[fi, sl]


# --------------------------------------------------------------------------- #
# Level 2: root merge of the group histograms
# --------------------------------------------------------------------------- #
def hierarchical_majority_vote(
    tensor,
    topology: GroupTopology,
    block_size: int | None = None,
    arrived: np.ndarray | None = None,
) -> tuple[RowSelection, np.ndarray]:
    """Two-level exact majority vote over a :class:`GroupTopology`.

    The tensor's payloads are classed once into the ``(f, r)`` content-id
    matrix (:func:`~repro.aggregation.majority.override_content_ids`).
    Level 1 produces each group's per-file local class histogram from its
    columns of that matrix; level 2 merges the histograms by content id.
    Both levels are integer work — the only payloads read are the winners
    that are not honest base rows, copied into the returned
    :class:`~repro.core.vote_tensor.RowSelection`.

    Returns the same ``(winners, counts)`` as
    :func:`~repro.aggregation.majority.majority_vote_votetensor` —
    bit-identical, by the class-decomposition argument in the module
    docstring, and with the same ``arrived`` (partial aggregation) and
    ``block_size`` (streamed payload classing) semantics.
    """
    block_size = validate_block_size(block_size)
    workers = tensor.workers
    if int(workers.min()) < 0 or int(workers.max()) >= topology.num_workers:
        raise ConfigurationError(
            f"vote tensor references workers outside the "
            f"{topology.num_workers}-worker topology"
        )
    ids = override_content_ids(tensor, block_size)
    f, r = ids.shape
    if r == 1 or topology.num_groups == 1:
        # Degenerate shapes: one group (or one slot) is the flat vote.
        return _select_winners(tensor, *_winning_slots(ids, arrived))
    slot_groups = topology.group_of[workers]  # (f, r)

    # ---- level 1: group the files into signature bands (files whose slots
    # map to groups identically), so each (band, group) cell is rectangular.
    signatures, inverse = np.unique(slot_groups, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    cells = []
    for c in range(signatures.shape[0]):
        files = np.nonzero(inverse == c)[0]
        row = signatures[c]
        for g in np.unique(row):
            cols = np.nonzero(row == g)[0]
            cells.append(_cell_histogram(ids[np.ix_(files, cols)], files, cols))
    e_file, e_slot, e_count, e_id = (np.concatenate(col) for col in zip(*cells))

    # ---- level 2: merge the group classes by (file, content id); a merged
    # class is anchored at its smallest global slot.
    order = np.lexsort((e_slot, e_id, e_file))
    sf, si, ss, sc = e_file[order], e_id[order], e_slot[order], e_count[order]
    starts = np.empty(order.size, dtype=bool)
    starts[0] = True
    starts[1:] = (sf[1:] != sf[:-1]) | (si[1:] != si[:-1])
    first = np.nonzero(starts)[0]
    run_count = np.bincount(np.cumsum(starts) - 1, weights=sc).astype(np.int64)
    best = np.full(f, -1, dtype=np.int64)
    np.maximum.at(best, sf[first], run_count * (r + 1) - ss[first])

    # ---- winner resolution: largest class, smallest slot on ties —
    # the flat kernel's exact tie-break, recovered from the packed score.
    win_count = (best + r) // (r + 1)
    win_slot = win_count * (r + 1) - best
    return _select_winners(tensor, *_revote_incomplete(ids, win_slot, win_count, arrived))
