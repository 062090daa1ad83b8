"""Per-file majority vote over replicated gradients (paper Eq. (3)).

Each file's gradient is computed by ``r`` workers; the PS picks the value that
appears the largest number of times.  Honest workers return bit-identical
gradients for the same file (the simulator guarantees this, matching the
paper's implementation note), so exact-equality voting suffices; a tolerance
is supported for robustness against floating-point jitter, implemented by
greedy leader clustering of votes whose distance is below the tolerance.

:func:`majority_vote_tensor` votes all ``f`` files of a round at once from
an ``(f, r, d)`` array, without per-file Python loops.  Both voting modes
start from a shared bit-equality *label matrix*: one vectorized anchor sweep
comparing every slot to its file's slot 0 (which alone settles a fully
honest round), plus 64-bit positional hashing of the few slots that mismatch
their anchor, each group verified against its first member so a hash
collision can never corrupt the result.  Exact voting resolves winners
directly from the tiny ``(f, r)`` label matrix; tolerance voting runs greedy
leader clustering over the per-file *unique* values only (typically one or
two classes instead of ``r`` slots).

The pipelines enter through :func:`majority_vote_votetensor`.  For a lazy
copy-on-write tensor it never builds the ``(f, r, d)`` cube:
:func:`override_content_ids` classes the override payloads once — per
distinct stored row, not per slot — into an ``(f, r)`` integer matrix, the
winning slots resolve from those integers, and the winners leave as a
:class:`~repro.core.vote_tensor.RowSelection` of those slots rather than as
a second ``(f, d)`` matrix.  The hierarchical vote in
:mod:`repro.cluster.topology` starts from the same matrix (a dense tensor's
label matrix serves as its ids); there is no second implementation of
payload classing.

``_reference_exact_majority`` / ``_reference_clustered_majority`` are the
pure-Python single-file oracles the kernels are tested and benchmarked
against.
"""

from __future__ import annotations

import numpy as np

from repro.core.backend import bit_view_dtype, ensure_float
from repro.core.vote_tensor import RowSelection
from repro.exceptions import AggregationError
from repro.utils.arrays import LANE_BLOCK, block_ranges
from repro.utils.rng import as_generator

__all__ = [
    "majority_vote_tensor",
    "majority_vote_votetensor",
    "override_content_ids",
    "validate_tolerance",
    "validate_block_size",
]


def validate_tolerance(tolerance: float) -> float:
    """Single validation point for the voting tolerance (shared by all APIs)."""
    if not tolerance >= 0:  # also NaN
        raise AggregationError(f"tolerance must be non-negative, got {tolerance}")
    return float(tolerance)


def validate_block_size(block_size: int | None) -> int | None:
    """Single validation point for the coordinate-block width (all kernels)."""
    if block_size is None:
        return None
    block_size = int(block_size)
    if block_size <= 0:
        raise AggregationError(
            f"block_size must be a positive integer or None, got {block_size}"
        )
    return block_size


#: streaming loop helper shared with the robust aggregators
_block_ranges = block_ranges


# --------------------------------------------------------------------------- #
# Reference single-file implementations — the oracles the vectorized kernel
# is tested and benchmarked against.
# --------------------------------------------------------------------------- #
def _reference_exact_majority(matrix: np.ndarray) -> tuple[np.ndarray, int]:
    """Majority by exact byte equality; returns (winner, count)."""
    counts: dict[bytes, int] = {}
    first_index: dict[bytes, int] = {}
    for idx in range(matrix.shape[0]):
        key = matrix[idx].tobytes()
        counts[key] = counts.get(key, 0) + 1
        first_index.setdefault(key, idx)
    # Deterministic tie-break: highest count, then earliest appearance.
    best_key = max(counts, key=lambda k: (counts[k], -first_index[k]))
    return matrix[first_index[best_key]].copy(), counts[best_key]


def _reference_clustered_majority(
    matrix: np.ndarray, tolerance: float
) -> tuple[np.ndarray, int]:
    """Majority by greedy leader clustering (first within-`tolerance` cluster)."""
    n = matrix.shape[0]
    clusters: list[list[int]] = []
    for idx in range(n):
        placed = False
        for members in clusters:
            representative = matrix[members[0]]
            if np.linalg.norm(matrix[idx] - representative) <= tolerance:
                members.append(idx)
                placed = True
                break
        if not placed:
            clusters.append([idx])
    sizes = [len(members) for members in clusters]
    winner = int(np.argmax(sizes))
    members = clusters[winner]
    return matrix[members].mean(axis=0), len(members)


# --------------------------------------------------------------------------- #
# Vectorized kernel
# --------------------------------------------------------------------------- #
#: cache of per-dimension positional hash weights (odd, so they are units
#: modulo 2**64 and single-coordinate differences always change the hash)
_HASH_WEIGHTS: dict[int, np.ndarray] = {}


def _hash_weights(d: int) -> np.ndarray:
    weights = _HASH_WEIGHTS.get(d)
    if weights is None:
        rng = as_generator(0xB125_517D)
        weights = rng.integers(1, 2**63, size=d, dtype=np.uint64) | np.uint64(1)
        _HASH_WEIGHTS[d] = weights
    return weights


def _accumulate_hashes(gather_block, count: int, d: int, block_size: int | None) -> np.ndarray:
    """64-bit positional hashes of ``count`` rows, streamed per block.

    ``gather_block(lo, hi)`` must return the ``(count, hi - lo)`` unsigned
    bit view of the rows' coordinate block.  Because the hash is a sum of
    per-coordinate products modulo 2**64 (uint64 wraparound), per-block
    partial sums are *exactly* — not just approximately — equal to one
    full-width einsum, so every width gives the same hashes; ``None`` means
    :data:`~repro.utils.arrays.LANE_BLOCK`.
    """
    weights = _hash_weights(d)
    hashes = np.zeros(count, dtype=np.uint64)
    for lo, hi in _block_ranges(d, block_size or LANE_BLOCK):
        bits = gather_block(lo, hi)
        hashed = bits if bits.dtype == np.uint64 else bits.astype(np.uint64)
        hashes += np.einsum("mb,b->m", hashed, weights[lo:hi])
    return hashes


def _rows_equal(gather_a, gather_b, count: int, d: int, block_size: int | None) -> np.ndarray:
    """``(count,)`` bool: rows bitwise equal, AND-accumulated per block.

    ``gather_a`` / ``gather_b`` return the two sides' ``(count, hi - lo)``
    bit blocks; the peak temporary is O(count · block), where ``block_size``
    ``None`` means :data:`~repro.utils.arrays.LANE_BLOCK`.  The sweep stops
    after the first block that leaves no row equal: every row is then
    already proven unequal, which is how a crafted payload (it differs from
    the honest rows at once) costs one block instead of ``d`` coordinates.
    """
    equal = np.ones(count, dtype=bool)
    for lo, hi in _block_ranges(d, block_size or LANE_BLOCK):
        equal &= (gather_a(lo, hi) == gather_b(lo, hi)).all(axis=1)
        if not equal.any():
            break
    return equal


def _bit_label_matrix(values: np.ndarray, block_size: int | None = None) -> np.ndarray:
    """Label each (file, slot) by bit-exact content: ``labels[i, k]`` is the
    smallest slot index of file ``i`` holding the same bytes as slot ``k``.

    Equality is on raw bit patterns (an unsigned-integer view of the same
    width — ``uint64`` for float64 payloads, ``uint32`` for float32),
    matching the reference's ``tobytes()`` semantics exactly: NaN payloads
    with equal bits count as equal and ``-0.0 != +0.0``.  One vectorized
    anchor sweep compares every slot to slot 0; the (typically few)
    mismatching slots are grouped by a 64-bit positional hash, with every
    group member verified against the group's first slot — a hash collision
    therefore never corrupts the labels, it only demotes the affected files
    to a per-file fallback.

    With ``block_size`` set, the anchor sweep, the hashes and the group
    verification all stream coordinate blocks of width ``block_size``
    through fixed-size workspaces, so the peak temporary is O(f · r · block)
    instead of O(f · r · d) — and every stage is bit-identical to the
    full-width pass (boolean AND and uint64 sums are order-independent).
    Under ``None`` only the anchor sweep runs at full width; the hashes and
    the verification stream at :data:`~repro.utils.arrays.LANE_BLOCK`.
    """
    f, r, d = values.shape
    bits = np.ascontiguousarray(values).view(bit_view_dtype(values.dtype))
    labels = np.zeros((f, r), dtype=np.int64)
    if block_size is None or block_size >= d:
        eq0 = (bits[:, 1:, :] == bits[:, :1, :]).all(axis=2)  # (f, r-1)
    else:
        eq0 = np.ones((f, r - 1), dtype=bool)
        for lo, hi in _block_ranges(d, block_size):
            eq0 &= (bits[:, 1:, lo:hi] == bits[:, :1, lo:hi]).all(axis=2)
    mism_file, mism_slot = np.nonzero(~eq0)
    if mism_file.size == 0:  # honest round: everything matches its anchor
        return labels
    mism_slot = mism_slot + 1  # eq0 starts at slot 1
    hashes = _accumulate_hashes(
        lambda lo, hi: bits[mism_file, mism_slot, lo:hi],
        mism_file.size,
        d,
        block_size,
    )
    order = np.lexsort((hashes, mism_file))  # stable: slot-ascending in ties
    sf, sh, ss = mism_file[order], hashes[order], mism_slot[order]
    starts = np.empty(order.size, dtype=bool)
    starts[0] = True
    starts[1:] = (sf[1:] != sf[:-1]) | (sh[1:] != sh[:-1])
    group = np.cumsum(starts) - 1  # group id of each sorted mismatch slot
    first_of_group = np.nonzero(starts)[0]
    member = ~starts  # slots that must be verified against their group anchor
    verified = np.ones(order.size, dtype=bool)
    if member.any():
        anchor = order[first_of_group][group]  # M-index of each slot's anchor
        mem_file, mem_slot = sf[member], ss[member]
        anc_file, anc_slot = mism_file[anchor[member]], mism_slot[anchor[member]]
        verified[member] = _rows_equal(
            lambda lo, hi: bits[mem_file, mem_slot, lo:hi],
            lambda lo, hi: bits[anc_file, anc_slot, lo:hi],
            mem_file.size,
            d,
            block_size,
        )
    labels[sf, ss] = ss[first_of_group][group]  # anchor slot of each group
    if not verified.all():
        # 64-bit hash collision (adversarially crafted payloads): label the
        # affected files one by one with tobytes() keys instead.
        for i in np.unique(sf[~verified]):
            seen: dict[bytes, int] = {}
            for k in range(r):
                labels[i, k] = seen.setdefault(values[i, k].tobytes(), k)
    return labels


def _class_sizes(labels: np.ndarray) -> np.ndarray:
    """``sizes[i, s]``: members of file ``i``'s class anchored at slot ``s``."""
    r = labels.shape[1]
    return (labels[:, :, None] == np.arange(r)[None, None, :]).sum(axis=1)


def _winners_from_slots(
    values: np.ndarray, best_slot: np.ndarray
) -> np.ndarray:
    """Gather ``values[i, best_slot[i]]`` cheaply (slot 0 is the common case)."""
    winners = values[:, 0, :].copy()
    fix = np.nonzero(best_slot != 0)[0]
    if fix.size:
        winners[fix] = values[fix, best_slot[fix]]
    return winners


def _winning_slots(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(best_slot, count)`` per file from smallest-slot class labels."""
    n, r = labels.shape
    sizes = _class_sizes(labels)
    # Lexicographic (count desc, anchor-slot asc): counts differ by >= 1
    # which outweighs any slot difference (< r); empty classes score <= 0
    # and real classes score >= 1, so non-anchors never win.
    score = sizes * r - np.arange(r)[None, :]
    best_slot = score.argmax(axis=1)
    return best_slot, sizes[np.arange(n), best_slot]


def _exact_majority_tensor(
    values: np.ndarray, block_size: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact-equality winners of every file: ``(f, d)`` winners, ``(f,)`` counts."""
    f, r, d = values.shape
    if r == 1:
        return values[:, 0, :].copy(), np.ones(f, dtype=np.int64)
    if d == 0:
        return np.zeros((f, 0), dtype=values.dtype), np.full(f, r, dtype=np.int64)
    best_slot, counts = _winning_slots(_bit_label_matrix(values, block_size=block_size))
    return _winners_from_slots(values, best_slot), counts


def _clustered_majority_tensor(
    values: np.ndarray, tolerance: float, block_size: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy leader clustering of every file at once.

    Replicates the reference semantics: scanning slots in order, a vote joins
    the first existing cluster whose *leader* (first member) is within
    ``tolerance``; otherwise it founds a new cluster.  Because bit-identical
    slots always travel together (distance 0 to each other's leader), the
    greedy scan runs over each file's *unique* values — the bit-equality
    classes, typically one or two per file — instead of all ``r`` slots, and
    distance checks batch over files.  The winner is the largest cluster
    (earliest founded on ties) and its mean is taken over the original
    member slots in slot order, bit-identical to the reference.
    """
    f, r, _ = values.shape
    labels = _bit_label_matrix(values, block_size=block_size)
    sizes = _class_sizes(labels)
    is_anchor = labels == np.arange(r)[None, :]  # class representatives
    # cluster_of[i, s]: cluster id (= leader's anchor slot) of the class
    # anchored at slot s; -1 for non-anchor slots.
    cluster_of = np.full((f, r), -1, dtype=np.int64)
    cluster_of[:, 0] = 0
    for k in range(1, r):
        anchors_k = is_anchor[:, k]
        if not anchors_k.any():
            continue
        unassigned = anchors_k.copy()
        for j in range(k):
            # Class k may join cluster j only where slot j leads a cluster.
            candidate = unassigned & (cluster_of[:, j] == j)
            idx = np.nonzero(candidate)[0]
            if idx.size == 0:
                continue
            if idx.size * 4 < f:
                # Sparse candidates: gather just those files instead of a
                # full-width (f, d) pass.
                diff = values[idx, k, :] - values[idx, j, :]
                dist = np.sqrt(np.einsum("fd,fd->f", diff, diff))
                joins_idx = idx[dist <= tolerance]
            else:
                diff = values[:, k, :] - values[:, j, :]
                dist = np.sqrt(np.einsum("fd,fd->f", diff, diff))
                joins_idx = idx[dist[idx] <= tolerance]
            cluster_of[joins_idx, k] = j
            unassigned[joins_idx] = False
        cluster_of[unassigned, k] = k
    # Member mask per slot: a slot belongs to the winning cluster iff its
    # class's cluster is the winner.  Cluster sizes sum member class sizes.
    cluster_sizes = np.zeros((f, r), dtype=np.int64)
    rows = np.arange(f)
    for s in range(r):
        anchored = np.nonzero(cluster_of[:, s] >= 0)[0]
        if anchored.size:
            cluster_sizes[anchored, cluster_of[anchored, s]] += sizes[anchored, s]
    # Earliest-founded cluster wins ties: founding order equals leader slot
    # order, and empty clusters (size 0) never beat real ones.
    win_score = cluster_sizes * r - np.arange(r)[None, :]
    win = win_score.argmax(axis=1)
    member = cluster_of[rows[:, None], labels] == win[:, None]  # (f, r) slots
    counts = cluster_sizes[rows, win]
    # Mean over the member slots in slot order.  Files whose winning cluster
    # contains every slot (the common case) take the plain axis mean; the
    # rest sum +0.0 for non-members, which is bit-identical to skipping them
    # (IEEE x + 0.0 == x) while staying vectorized.
    winners = values.mean(axis=1)
    partial = np.nonzero(counts != r)[0]
    if partial.size:
        part_vals = values[partial]
        part_member = member[partial]
        totals = np.where(part_member[:, :, None], part_vals, 0.0).sum(axis=1)
        winners[partial] = totals / counts[partial, None]
    return winners, counts.astype(np.int64)


def majority_vote_tensor(
    values: np.ndarray, tolerance: float = 0.0, block_size: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Majority-vote every file of a round in one vectorized pass.

    Parameters
    ----------
    values:
        ``(f, r, d)`` tensor of the returned gradients (``r`` votes per file).
    tolerance:
        Zero (default) selects exact byte-equality voting; a positive value
        groups votes within Euclidean distance ``tolerance`` of a cluster
        leader and returns the mean of each file's winning cluster.
    block_size:
        A positive width streams the bit-equality labeling in coordinate
        blocks, capping the peak temporary at O(f · r · block) instead of
        O(f · r · d) while staying bit-identical.  ``None`` (default) leaves
        the anchor sweep at full width; the hashes and the row-against-row
        comparisons stream either way, at an internal width
        (:data:`~repro.utils.arrays.LANE_BLOCK`).  Tolerance voting streams
        only the labeling (its cluster means are full-width reductions by
        definition).

    Returns
    -------
    winners, counts:
        ``(f, d)`` winning gradients and the ``(f,)`` vote counts they won by.
        The winners keep the input's working dtype (float32 stays float32).
    """
    values = ensure_float(values)
    if values.ndim != 3:
        raise AggregationError(
            f"vote tensor must be (f, r, d), got ndim={values.ndim}"
        )
    if values.shape[1] == 0:
        raise AggregationError("majority vote needs at least one vote")
    tolerance = validate_tolerance(tolerance)
    block_size = validate_block_size(block_size)
    if tolerance == 0.0:
        return _exact_majority_tensor(values, block_size=block_size)
    return _clustered_majority_tensor(values, tolerance, block_size=block_size)


def _row_bits(bits: np.ndarray, rows: np.ndarray):
    """Block gatherer over ``bits[rows]`` for the streaming helpers above.

    When every index names the same row (the colluding adversary: one
    payload against many files) the gatherer returns that row as a
    ``(1, width)`` view, which broadcasts in :func:`_rows_equal` instead of
    being copied once per comparison.
    """
    if rows.size > 1 and (rows == rows[0]).all():
        rows = slice(int(rows[0]), int(rows[0]) + 1)
    # Columns first, then plain row indexing: the mixed ``[rows, lo:hi]``
    # form takes NumPy's slower general gather.
    return lambda lo, hi: bits[:, lo:hi][rows]


def _dense_values(tensor) -> np.ndarray:
    """The vote kernels' one densification point (see the two callers), as
    a read-only view: the kernels only ever read the cube."""
    view = tensor.values.view()  # repro-lint: disable=COW-001 (no-copy view of a dense tensor; a lazy one densifies only for tolerance voting, whose cluster means need the full slot layout)
    view.setflags(write=False)
    return view


def override_content_ids(tensor, block_size: int | None = None) -> np.ndarray:
    """``(f, r)`` content ids of a :class:`VoteTensor`'s slots.

    Two slots of a file hold bit-equal payloads iff their ids are equal, so
    the exact vote — flat or hierarchical — is integer work on this matrix.
    A dense tensor's ids are its smallest-equal-slot labels
    (:func:`_bit_label_matrix`).  A lazy tensor's ids (0 = honest base) come
    from its payload table, so shared payloads cost one pass, not one per
    slot: equality with the base is decided once per distinct (payload row,
    file) pair, the 64-bit positional hash is taken once per distinct row
    that differs from its base, and rows with equal hashes are byte-compared
    against the group's first row (slots sharing a row are equal by
    identity).  A failed comparison — a hash collision — re-classes that
    group's rows by ``tobytes()`` keys, so a collision can cost time but
    never a wrong label.  The comparison, the hashes and the verification
    stream coordinate blocks of width ``block_size`` (``None``:
    :data:`~repro.utils.arrays.LANE_BLOCK`): O(M · block) temporaries for
    ``M`` distinct pairs, and every width gives the same ids.
    """
    if not tensor.is_lazy:
        return _bit_label_matrix(_dense_values(tensor), block_size=block_size)
    f, r, d = tensor.shape
    cid = np.zeros((f, r), dtype=np.int64)
    files, slots, rows, payloads = tensor.override_table()
    if files.size == 0 or d == 0:
        return cid
    view = bit_view_dtype(tensor.dtype)
    payload_bits = payloads.view(view)
    base_bits = tensor.base_rows().view(view)
    pairs, pair_of = np.unique(rows * f + files, return_inverse=True)
    eq_base = _rows_equal(
        _row_bits(payload_bits, pairs // f),
        _row_bits(base_bits, pairs % f),
        pairs.size,
        d,
        block_size,
    )
    differs = ~eq_base[pair_of]
    if not differs.any():
        return cid
    live, live_of = np.unique(rows[differs], return_inverse=True)
    hashes = _accumulate_hashes(_row_bits(payload_bits, live), live.size, d, block_size)
    order = np.argsort(hashes, kind="stable")
    sorted_hashes = hashes[order]
    starts = np.empty(live.size, dtype=bool)
    starts[0] = True
    starts[1:] = sorted_hashes[1:] != sorted_hashes[:-1]
    group = np.cumsum(starts) - 1
    class_of = np.empty(live.size, dtype=np.int64)
    class_of[order] = group
    member = ~starts
    if member.any():
        anchor = order[np.nonzero(starts)[0]][group]
        verified = _rows_equal(
            _row_bits(payload_bits, live[order[member]]),
            _row_bits(payload_bits, live[anchor[member]]),
            int(member.sum()),
            d,
            block_size,
        )
        for g in np.unique(group[member][~verified]):
            seen: dict[bytes, int] = {}
            for j in order[group == g]:
                # ids past the last hash group, unique per distinct row
                key = payloads[live[j]].tobytes()
                class_of[j] = seen.setdefault(key, group.size + j)
    cid[files[differs], slots[differs]] = 1 + class_of[live_of]
    return cid


def _labels_from_ids(ids: np.ndarray) -> np.ndarray:
    """Smallest-slot labels of an ``(n, r)`` content-id matrix — what
    :func:`_bit_label_matrix` computes from the payloads themselves."""
    n, r = ids.shape
    labels = np.zeros((n, r), dtype=np.int64)
    for k in range(1, r):
        eq = ids[:, :k] == ids[:, k : k + 1]
        labels[:, k] = np.where(eq.any(axis=1), eq.argmax(axis=1), k)
    return labels


def majority_vote_votetensor(
    tensor, tolerance: float = 0.0, block_size: int | None = None
) -> tuple[RowSelection, np.ndarray]:
    """Majority-vote a round straight from a :class:`VoteTensor`.

    This is the pipelines' entry point.  The exact vote is integer work:
    :func:`override_content_ids` classes the payloads (a lazy tensor's from
    its payload table, a dense one's by the anchor sweep), every file whose
    ids are all zero holds ``r`` copies of one row — its winner is slot 0
    with count ``r`` — and the other files resolve their winning slot from
    the id matrix with the dense kernel's smallest-slot labels and
    tie-break.  No ``(f, r, d)`` replica cube ever exists, and neither does
    an ``(f, d)`` winners matrix: the winners are handed on as the
    :class:`~repro.core.vote_tensor.RowSelection` of the winning slots — the
    tensor's honest base plus a copy of each payload that out-voted it.

    Tolerance-based voting averages each winning cluster, whose floating-
    point reduction depends on the full slot layout; lazy tensors densify
    first in that mode to stay bit-identical with the dense kernel, and the
    cluster means (a fresh matrix) are the selection's base.

    Every payload-touching stage streams coordinate blocks of width
    ``block_size`` (``None``: :data:`~repro.utils.arrays.LANE_BLOCK`), and
    every width gives the same bits.
    """
    tolerance = validate_tolerance(tolerance)
    block_size = validate_block_size(block_size)
    f, r, _ = tensor.shape
    if r == 0:
        raise AggregationError("majority vote needs at least one vote")
    if tolerance != 0.0:
        winners, counts = _clustered_majority_tensor(
            _dense_values(tensor), tolerance, block_size=block_size
        )
        return RowSelection(winners), counts
    win_slot = np.zeros(f, dtype=np.int64)
    counts = np.full(f, r, dtype=np.int64)
    ids = override_content_ids(tensor, block_size)
    touched = np.nonzero(ids.any(axis=1))[0]
    if touched.size:
        win_slot[touched], counts[touched] = _winning_slots(_labels_from_ids(ids[touched]))
    return tensor.select_slots(win_slot), counts
