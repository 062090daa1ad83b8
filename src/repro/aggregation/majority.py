"""Per-file majority vote over replicated gradients (paper Eq. (3)).

Each file's gradient is computed by ``r`` workers.  Honest workers return
bit-identical gradients for the same file (the simulator guarantees this,
matching the paper's implementation note), so the vote is on exact content:
two copies are the same vote iff their bytes are equal (NaN payloads with
equal bits are equal, ``-0.0 != +0.0``).  The rule is the paper's: a file is
decided iff one content class holds at least ``r' = r // 2 + 1`` of its
accepted copies (:func:`~repro.core.distortion.majority_threshold`), the
threshold the graph's ``c_max`` counts by; otherwise it abstains (no
winner).

The pipelines enter through :func:`majority_vote_votetensor`, which never
builds the ``(f, r, d)`` replica cube: :func:`override_content_ids` classes
a :class:`~repro.core.vote_tensor.VoteTensor`'s override payloads once — per
distinct stored row, not per slot — into an ``(f, r)`` integer matrix, the
winning slots resolve from those integers, and the winners leave as a
:class:`~repro.core.vote_tensor.RowSelection` of those slots rather than as
a second ``(f, d)`` matrix.  This is the only vote kernel: a group topology
shapes when the event engine stops accepting copies, never how the PS votes
them.  The ids are canonical (0 = the
file's honest base row, the rest numbered by first appearance), and the
vote hands them on with each winner's reference into them: the scenario
trace hashes the round from those instead of from every slot.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.backend import bit_view_dtype
from repro.core.distortion import majority_threshold
from repro.core.vote_tensor import RowSelection
from repro.exceptions import AggregationError
from repro.utils.arrays import GATHER_ELEMENTS, LANE_BLOCK, block_ranges
from repro.utils.rng import as_generator

__all__ = [
    "Vote",
    "majority_vote_votetensor",
    "override_content_ids",
    "validate_block_size",
]


def validate_block_size(block_size: int | None) -> int | None:
    """Single validation point for the vote's coordinate-block width."""
    if block_size is None:
        return None
    block_size = int(block_size)
    if block_size <= 0:
        raise AggregationError(
            f"block_size must be a positive integer or None, got {block_size}"
        )
    return block_size


# --------------------------------------------------------------------------- #
# Streaming payload comparison
# --------------------------------------------------------------------------- #
#: the positional hash weights (odd, so they are units modulo 2**64 and
#: single-coordinate differences always change the hash): one vector, as
#: wide as the widest row hashed so far; a narrower row reads its prefix
_HASH_WEIGHTS = np.empty(0, dtype=np.uint64)


#: coordinates of the first block :func:`_rows_equal` compares (narrower
#: when ``block_size`` or the gather budget is): a payload that differs from
#: the row it is compared with differs here, so most comparisons end after
#: gathering 64 coordinates of each row
_PROBE_COLUMNS = 64


def _gather_width(block_size: int | None, count: int) -> int:
    """``block_size`` (``None``: :data:`~repro.utils.arrays.LANE_BLOCK`),
    narrowed so ``count`` gathered rows of it hold at most
    :data:`GATHER_ELEMENTS` (a comparison gathers two sides, so it passes
    twice its row count)."""
    return max(1, min(block_size or LANE_BLOCK, GATHER_ELEMENTS // max(1, count)))


def _hash_weights(d: int) -> np.ndarray:
    """The first ``d`` weights.  The draw is prefix-stable (the first ``d``
    of a wider draw are a draw of ``d``), so a prefix is what a draw of
    width ``d`` gives, and only the widest vector is kept."""
    global _HASH_WEIGHTS
    if _HASH_WEIGHTS.size < d:
        rng = as_generator(0xB125_517D)
        weights = rng.integers(1, 2**63, size=d, dtype=np.uint64)
        weights |= np.uint64(1)
        _HASH_WEIGHTS = weights
    return _HASH_WEIGHTS[:d]


def _accumulate_hashes(gather_block, count: int, d: int, block_size: int | None) -> np.ndarray:
    """64-bit positional hashes of ``count`` rows, streamed per block.

    ``gather_block(lo, hi)`` must return the ``(count, hi - lo)`` unsigned
    bit view of the rows' coordinate block.  Because the hash is a sum of
    per-coordinate products modulo 2**64 (uint64 wraparound), per-block
    partial sums are *exactly* — not just approximately — equal to one
    full-width einsum, so every width gives the same hashes.  Blocks are
    ``block_size`` wide (``None``: :data:`~repro.utils.arrays.LANE_BLOCK`)
    but never hold more than :data:`GATHER_ELEMENTS`, so the gathered block
    stays within 256 KiB (128 KiB as a float32 round's uint32 bits).  That
    block goes to ``einsum`` as it is: against the uint64 weights NumPy
    widens it through its 64 KiB iterator buffer, and the uint64 products
    and sums are the same modulo 2**64 as those of a widened copy.
    """
    weights = _hash_weights(d)
    hashes = np.zeros(count, dtype=np.uint64)
    for lo, hi in block_ranges(d, _gather_width(block_size, count)):
        hashes += np.einsum("mb,b->m", gather_block(lo, hi), weights[lo:hi])
    return hashes


def _rows_equal(gather_a, gather_b, count: int, d: int, block_size: int | None) -> np.ndarray:
    """``(count,)`` bool: rows bitwise equal, AND-accumulated per block.

    ``gather_a`` / ``gather_b`` return the two sides' ``(count, hi - lo)``
    bit blocks, ``block_size`` wide (``None``:
    :data:`~repro.utils.arrays.LANE_BLOCK`) but narrowed so that both sides
    together hold at most :data:`GATHER_ELEMENTS`: the two gathered blocks
    stay within 256 KiB, their bool image within 16 KiB, whatever
    ``count``.  The sweep opens with a probe block at most
    :data:`_PROBE_COLUMNS` wide, within the same budget, and stops after
    the first block that leaves no row equal: every row is then already
    proven unequal, which is how a crafted or noisy payload (it differs from
    the honest rows at once) costs the probe instead of ``d`` coordinates or
    a full gather, so only rows that stay equal pay for the wider blocks.
    """
    width = _gather_width(block_size, 2 * count)
    probe = min(d, _PROBE_COLUMNS, width)
    equal = (gather_a(0, probe) == gather_b(0, probe)).all(axis=1)
    for lo, hi in block_ranges(d - probe, width):
        if not equal.any():
            break
        equal &= (gather_a(probe + lo, probe + hi) == gather_b(probe + lo, probe + hi)).all(axis=1)
    return equal


def _row_bits(bits: np.ndarray, rows: np.ndarray):
    """Block gatherer over ``bits[rows]`` for the streaming helpers.

    Two index patterns are served by views, never gathered: every row of
    ``bits`` in order (the hashes of a round whose every stored payload
    differs from its base) is ``bits``' own column block, and one row named
    by every index (the colluding adversary: one payload against many
    files) is that row as a ``(1, width)`` view, which broadcasts in
    :func:`_rows_equal` instead of being copied once per comparison.
    """
    if rows.size == bits.shape[0] and np.array_equal(rows, np.arange(rows.size)):
        return lambda lo, hi: bits[:, lo:hi]
    if rows.size > 1 and (rows == rows[0]).all():
        rows = slice(int(rows[0]), int(rows[0]) + 1)
    # Columns first, then plain row indexing: the mixed ``[rows, lo:hi]``
    # form takes NumPy's slower general gather.
    return lambda lo, hi: bits[:, lo:hi][rows]


def override_content_ids(tensor, block_size: int | None = None) -> np.ndarray:
    """``(f, r)`` content ids of a :class:`VoteTensor`'s slots.

    Two slots of a file hold bit-equal payloads iff their ids are equal, so
    the exact vote is integer work on this matrix.
    Id 0 means bit-equal to the file's honest base row; the other ids name
    content classes across the whole round, numbered ``1, 2, ...`` by first
    appearance in C order, so the matrix is a function of the base and the
    cube alone.  The ids come from the tensor's payload table, so
    shared payloads cost one pass, not one per slot: equality with the base
    is decided once per distinct (payload row, file) pair, the 64-bit
    positional hash is taken once per distinct row that differs from its
    base, and rows with equal hashes are byte-compared against the group's
    first row (slots sharing a row are equal by identity).  A failed
    comparison — a hash collision — re-classes that group's rows by
    ``tobytes()`` keys, so a collision can cost time but never a wrong
    label.  The comparison, the hashes and the verification
    stream coordinate blocks of width ``block_size`` (``None``:
    :data:`~repro.utils.arrays.LANE_BLOCK`), narrowed so that what one
    block gathers — both sides of a comparison, or the rows hashed — stays
    within :data:`GATHER_ELEMENTS` elements (256 KiB as uint64) however many
    distinct pairs there are, and every width gives the same ids.
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
    return _canonical(cid)


def _canonical(cid: np.ndarray) -> np.ndarray:
    """Renumber the nonzero ids ``1, 2, ...`` by first appearance in C order.

    The classes are content classes, so after this the matrix depends on
    the cube's content alone — not on hash order, store order or how the
    payloads were written — and the trace digests it as is.
    """
    flat = cid.reshape(-1)
    nonzero = np.nonzero(flat)[0]
    _, first, inverse = np.unique(flat[nonzero], return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(1, first.size + 1)
    flat[nonzero] = rank[inverse]
    return cid


def _winning_slots(
    ids: np.ndarray, arrived: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Each file's winning slot and vote count from the ``(f, r)`` content ids.

    A file is decided iff one class of equal ids holds ``r' = r // 2 + 1``
    of its accepted slots (``None``: all); ``r' > r / 2``, so at most one
    class can, and its smallest accepted slot wins.  Otherwise the count is
    0: the file abstains.  A complete file whose ids are all zero is slot 0,
    count ``r``, with no work.
    """
    f, r = ids.shape
    slots = np.zeros(f, dtype=np.int64)
    counts = np.full(f, r, dtype=np.int64)
    touched = ids.any(axis=1)
    if arrived is not None:
        touched |= ~arrived.all(axis=1)
    touched = np.nonzero(touched)[0]
    if touched.size:
        sub = ids[touched]
        # equal[i, k, j]: slot j votes for slot k's class
        equal = sub[:, :, None] == sub[:, None, :]
        if arrived is not None:
            voters = arrived[touched]
            equal &= voters[:, None, :]  # only accepted copies vote
            equal &= voters[:, :, None]  # and only they can win
        sizes = equal.sum(axis=2)
        best = sizes.argmax(axis=1)
        won = sizes[np.arange(touched.size), best]
        won[won < majority_threshold(r)] = 0
        slots[touched], counts[touched] = best, won
    return slots, counts


class Vote(NamedTuple):
    """One round's exact majority vote.

    Attributes
    ----------
    winners:
        The ``(n, d)`` winning rows as a
        :class:`~repro.core.vote_tensor.RowSelection`, one per decided file,
        in file order.
    counts:
        ``(f,)`` votes behind each file's winner, at least ``r'``; 0 for a
        file that abstained (no class of ``r'`` accepted copies).
    content_ids:
        The round's ``(f, r)`` canonical content ids
        (:func:`override_content_ids`).
    winner_refs:
        ``(n, 2)`` int64 ``(file, content id)`` of each winner.
    """

    winners: RowSelection
    counts: np.ndarray
    content_ids: np.ndarray
    winner_refs: np.ndarray


def _select_winners(
    tensor, ids: np.ndarray, slots: np.ndarray, counts: np.ndarray
) -> Vote:
    """The voted ``(slots, counts)`` handed on as a :class:`Vote`.

    A file with count 0 abstains: it has no winner row and no reference.  No
    payload row is copied here: the winners reference the tensor's payload
    store.
    """
    files = np.nonzero(counts)[0]
    winners = tensor.select_slots(slots[files], None if files.size == slots.size else files)
    refs = np.column_stack([files, ids[files, slots[files]]])
    return Vote(winners, counts, ids, refs)


def majority_vote_votetensor(
    tensor, block_size: int | None = None, arrived: np.ndarray | None = None
) -> Vote:
    """Majority-vote a round straight from a :class:`VoteTensor`.

    This is the pipelines' one vote, and it is integer work:
    :func:`override_content_ids` classes the payloads from the tensor's
    payload table and every file's winning slot and count resolve from the
    id matrix.  No ``(f, r, d)`` replica cube ever exists, and neither does
    an ``(f, d)`` winners matrix: the winners are handed on as the
    :class:`~repro.core.vote_tensor.RowSelection` of the winning slots —
    the tensor's honest base plus the store row id of each payload that
    out-voted it, so a colluding payload that wins many files is still one
    row.
    The returned :class:`Vote` also carries the content ids and each
    winner's reference into them, which is what the scenario trace hashes.

    ``arrived`` is the ``(f, r)`` bool mask of the copies the PS accepted
    (``None``: every copy arrived): only those copies vote, and a file
    whose largest class of them is short of ``r'`` abstains (count 0, no
    winner).  Every payload-touching stage streams coordinate blocks of width
    ``block_size`` (``None``: :data:`~repro.utils.arrays.LANE_BLOCK`), and
    every width gives the same bits.
    """
    ids = override_content_ids(tensor, validate_block_size(block_size))
    return _select_winners(tensor, ids, *_winning_slots(ids, arrived))
