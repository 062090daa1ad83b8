"""Per-file majority vote over replicated gradients (paper Eq. (3)).

Each file's gradient is computed by ``r`` workers; the PS picks the value that
appears the largest number of times.  Honest workers return bit-identical
gradients for the same file (the simulator guarantees this, matching the
paper's implementation note), so the vote is on exact content: two copies
are the same vote iff their bytes are equal (NaN payloads with equal bits
are equal, ``-0.0 != +0.0``).  Ties go to the class seen first in slot order.

The pipelines enter through :func:`majority_vote_votetensor`, which never
builds the ``(f, r, d)`` replica cube: :func:`override_content_ids` classes
a :class:`~repro.core.vote_tensor.VoteTensor`'s override payloads once — per
distinct stored row, not per slot — into an ``(f, r)`` integer matrix, the
winning slots resolve from those integers, and the winners leave as a
:class:`~repro.core.vote_tensor.RowSelection` of those slots rather than as
a second ``(f, d)`` matrix.  Under partial aggregation an incomplete file
resolves over its arrived slots of the same matrix.  The hierarchical vote
in :mod:`repro.cluster.topology` starts from the same matrix; there is no
second implementation of payload classing.

``_reference_exact_majority`` is the pure-Python single-file oracle the
kernels are tested and benchmarked against.
"""

from __future__ import annotations

import numpy as np

from repro.core.backend import bit_view_dtype
from repro.core.vote_tensor import RowSelection
from repro.exceptions import AggregationError
from repro.utils.arrays import LANE_BLOCK, block_ranges
from repro.utils.rng import as_generator

__all__ = [
    "majority_vote_votetensor",
    "override_content_ids",
    "validate_block_size",
]


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


# --------------------------------------------------------------------------- #
# Reference single-file implementation — the oracle the vectorized vote is
# tested and benchmarked against.
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


# --------------------------------------------------------------------------- #
# Streaming payload comparison
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
    for lo, hi in block_ranges(d, block_size or LANE_BLOCK):
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
    for lo, hi in block_ranges(d, block_size or LANE_BLOCK):
        equal &= (gather_a(lo, hi) == gather_b(lo, hi)).all(axis=1)
        if not equal.any():
            break
    return equal


def _class_sizes(labels: np.ndarray) -> np.ndarray:
    """``sizes[i, s]``: members of file ``i``'s class anchored at slot ``s``."""
    r = labels.shape[1]
    return (labels[:, :, None] == np.arange(r)[None, None, :]).sum(axis=1)


def _row_bits(bits: np.ndarray, rows: np.ndarray):
    """Block gatherer over ``bits[rows]`` for the streaming helpers.

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


def override_content_ids(tensor, block_size: int | None = None) -> np.ndarray:
    """``(f, r)`` content ids of a :class:`VoteTensor`'s slots.

    Two slots of a file hold bit-equal payloads iff their ids are equal, so
    the exact vote — flat or hierarchical — is integer work on this matrix.
    The ids (0 = honest base) come from the tensor's payload table, so
    shared payloads cost one pass, not one per slot: equality with the base
    is decided once per distinct (payload row, file) pair, the 64-bit
    positional hash is taken once per distinct row that differs from its
    base, and rows with equal hashes are byte-compared against the group's
    first row (slots sharing a row are equal by identity).  A failed
    comparison — a hash collision — re-classes that group's rows by
    ``tobytes()`` keys, so a collision can cost time but never a wrong
    label.  The comparison, the hashes and the verification
    stream coordinate blocks of width ``block_size`` (``None``:
    :data:`~repro.utils.arrays.LANE_BLOCK`): O(M · block) temporaries for
    ``M`` distinct pairs, and every width gives the same ids.
    """
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
    """Smallest-slot labels of an ``(n, r)`` content-id matrix: ``labels[i, k]``
    is the smallest slot of row ``i`` whose id equals slot ``k``'s."""
    n, r = ids.shape
    labels = np.zeros((n, r), dtype=np.int64)
    for k in range(1, r):
        eq = ids[:, :k] == ids[:, k : k + 1]
        labels[:, k] = np.where(eq.any(axis=1), eq.argmax(axis=1), k)
    return labels


def _resolve(ids: np.ndarray, arrived: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(slot, count)`` per row of an ``(n, r)`` content-id matrix.

    The winner is the largest class of equal ids, anchored at its smallest
    slot; on a tie the smaller anchor wins — the reference's "earliest
    appearance".  With ``arrived`` only those slots vote: a missing slot
    gets an id of its own and can never win, and a row with no arrived slot
    resolves to slot 0 with count 0.
    """
    n, r = ids.shape
    if arrived is not None:
        ids = np.where(arrived, ids, -1 - np.arange(r))
    sizes = _class_sizes(_labels_from_ids(ids))
    # Lexicographic (count desc, anchor-slot asc): counts differ by >= 1
    # which outweighs any slot difference (< r); empty classes score <= 0
    # and real classes score >= 1, so non-anchors never win.
    score = sizes * r - np.arange(r)[None, :]
    if arrived is not None:
        score[~arrived] = -r
    best = score.argmax(axis=1)
    counts = sizes[np.arange(n), best]
    if arrived is not None:
        counts[~arrived.any(axis=1)] = 0
    return best, counts


def _winning_slots(
    ids: np.ndarray, arrived: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Each file's winning slot and vote count from the ``(f, r)`` content ids.

    A complete file whose ids are all zero holds ``r`` copies of its base
    row: slot 0, count ``r``, no work.  The other complete files resolve
    over all ``r`` slots and the incomplete ones over their arrived slots
    (:func:`_revote_incomplete`), so each file is resolved at most once.
    """
    f, r = ids.shape
    slots = np.zeros(f, dtype=np.int64)
    counts = np.full(f, r, dtype=np.int64)
    touched = ids.any(axis=1)
    if arrived is not None:
        touched &= arrived.all(axis=1)
    touched = np.nonzero(touched)[0]
    if touched.size:
        slots[touched], counts[touched] = _resolve(ids[touched])
    return _revote_incomplete(ids, slots, counts, arrived)


def _revote_incomplete(
    ids: np.ndarray, slots: np.ndarray, counts: np.ndarray, arrived: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Every file missing a copy resolves over its arrived slots of ``ids``.

    One row read per file, whatever its number of arrived copies; a file
    with none gets count 0.  ``slots`` and ``counts`` are updated in place
    and returned.  Without an arrival mask nothing changes.
    """
    if arrived is not None:
        incomplete = np.nonzero(~arrived.all(axis=1))[0]
        slots[incomplete], counts[incomplete] = _resolve(ids[incomplete], arrived[incomplete])
    return slots, counts


def _select_winners(
    tensor, slots: np.ndarray, counts: np.ndarray
) -> tuple[RowSelection, np.ndarray]:
    """The voted ``(slots, counts)`` handed on as a :class:`RowSelection`.

    A file with count 0 (no arrived copy) is a zero row: the "missing =
    zero gradient" convention of the fault injectors.
    """
    winners = tensor.select_slots(slots)
    empty = np.nonzero(counts == 0)[0]
    if empty.size:
        kept = ~np.isin(winners.files, empty)
        zeros = np.zeros((empty.size, tensor.dim), dtype=tensor.dtype)
        winners = RowSelection(
            winners.base,
            np.concatenate([winners.files[kept], empty]),
            np.concatenate([winners.rows[kept], zeros]),
        )
    return winners, counts


def majority_vote_votetensor(
    tensor, block_size: int | None = None, arrived: np.ndarray | None = None
) -> tuple[RowSelection, np.ndarray]:
    """Majority-vote a round straight from a :class:`VoteTensor`.

    This is the pipelines' flat entry point, and it is integer work:
    :func:`override_content_ids` classes the payloads from the tensor's
    payload table and every file's winning slot and count resolve from the
    id matrix.  No ``(f, r, d)`` replica cube ever exists, and neither does
    an ``(f, d)`` winners matrix: the winners are handed on as the
    :class:`~repro.core.vote_tensor.RowSelection` of the winning slots —
    the tensor's honest base plus a copy of each payload that out-voted it.

    ``arrived`` is the partial-aggregation ``(f, r)`` bool mask of the
    copies the PS accepted: a file missing a copy is voted over its arrived
    copies only, and a file with none contributes a zero row with count 0.
    Every payload-touching stage streams coordinate blocks of width
    ``block_size`` (``None``: :data:`~repro.utils.arrays.LANE_BLOCK`), and
    every width gives the same bits.
    """
    ids = override_content_ids(tensor, validate_block_size(block_size))
    return _select_winners(tensor, *_winning_slots(ids, arrived))
