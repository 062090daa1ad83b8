"""Array helpers shared by the aggregators, the attacks, the model and the data.

Gradients travel through the system as flat float vectors; these helpers
walk a matrix of them in coordinate blocks, and provide the vectorized
column statistics and the distance computation the attacks and the Krum
family use.  All helpers preserve the supported working dtypes
(``float32``/``float64``) instead of promoting to ``float64`` — see
:mod:`repro.core.backend` — and coerce anything else to the backend default.
"""

from __future__ import annotations

import numpy as np

from repro.core.backend import ensure_float

__all__ = [
    "pairwise_squared_distances",
    "block_ranges",
    "reduction_blocks",
    "column_mean_std",
    "finite_stand_ins",
    "LANE_BLOCK",
    "GATHER_ELEMENTS",
]

#: Coordinates per block of the vote's row comparison and hashes when their
#: caller names no ``block_size`` (narrowed further by
#: :data:`GATHER_ELEMENTS`), of :func:`pairwise_squared_distances` over a
#: selection, and of :func:`column_mean_std`'s column-major path.  At n = 25
#: float64 one ``(n, block)`` buffer is 0.8 MiB.  Timed at 25 x 94k, min of
#: 15, widths 1024 to 16384: the vote is 10% slower from 8192 up, and at
#: 1024 ``sync-alie-wide``'s ``round_ms_p50`` read 3% slower on 2 of 2
#: pairs.  The two streaming robust rules keep narrower blocks of their own
#: (``median._LANE_BLOCK``, ``bulyan._LANE_BLOCK``).
LANE_BLOCK = 4096

#: elements one block gathers in the kernels whose row count varies (the
#: vote's row comparison, both sides together, and its hashes; the min-max
#: coefficients): 256 KiB as uint64 or float64, 128 KiB as a float32 round's
#: uint32 bits, whatever the row count or ``block_size``.  The hashes take
#: those bits unwidened.  Narrower blocks cost time: a full sweep takes
#: ``rows · d / GATHER_ELEMENTS`` steps, and at 64 KiB hashing 100 rows of
#: 94k coordinates took 1.4–2× as long as at this budget (EXPERIMENTS.md,
#: "Kernel widths and budgets")
GATHER_ELEMENTS = 1 << 15

#: coordinates of :func:`column_mean_std`'s one scratch row (128 KiB as
#: float64).  The variance takes three ufunc calls per row per block, so a
#: wider row makes fewer calls.  Timed at n = 25, min of 40 interleaved,
#: 2-core Xeon: against 4096 coordinates, 16384 takes 0.25–0.37 ms instead
#: of 0.36–0.51 on 11k float32 coordinates, 0.54–0.56 instead of 0.63–0.69
#: on 11k float64 and 4.6–4.7 instead of 5.3–5.4 on 94k float64; 32768
#: gained at most 0.3 ms more.
_SCRATCH_ROW = 1 << 14


def block_ranges(d: int, block_size: int | None):
    """Yield the ``[lo, hi)`` coordinate blocks covering dimension ``d``.

    ``None`` (or a width >= ``d``) yields the single full range — callers can
    therefore write one streaming loop that also covers the monolithic case.
    """
    if block_size is None or block_size >= d:
        yield 0, d
        return
    for lo in range(0, d, block_size):
        yield lo, min(lo + block_size, d)


def reduction_blocks(d: int, width: int):
    """Yield ``[lo, hi)`` blocks of ``width`` (at least 2) covering dimension ``d``.

    For kernels that reduce a C-contiguous ``(rows, hi - lo)`` block over
    axis 0 and must give the full-width reduction's bits: NumPy adds such a
    block row by row, column by column, whatever its width — except a block
    of width 1, which it reduces pairwise along the (strided) column, moving
    the last ulp from 8 rows up.  A width-1 tail is therefore folded into
    the block before it, so the widest block is ``width + 1``.
    """
    width = max(int(width), 2)
    for lo in range(0, max(d - 1, 1), width):
        hi = lo + width
        yield lo, d if hi >= d - 1 else hi


def finite_stand_ins(values: np.ndarray, copy: bool) -> np.ndarray:
    """``values`` with the stand-ins robust rules discard for non-finite entries.

    NaN -> 0 and +-inf -> +-1e30, as :meth:`Aggregator.__call__
    <repro.aggregation.base.Aggregator.__call__>` promises every rule.  The
    ``(rows, columns)`` values are tested first: finite ones (every honest
    block) are returned as they are.  The test is a sum over the block,
    which is finite only if every entry is (NaN and +-inf propagate), and
    builds no image of the block; ``einsum``'s sum takes half the time of
    ``ndarray.sum`` on a lane buffer and buffers no strided block.  Only a
    sum that is not finite (a non-finite entry, or finite entries whose sum
    overflows) is followed by the entrywise test.  ``copy=False`` writes the
    stand-ins into ``values`` (a lane buffer), ``copy=True`` into a copy.
    Each entry is replaced on its own, so clamping block by block gives the
    bits of clamping the whole matrix.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.einsum("ij->", values)
    if np.isfinite(total) or np.isfinite(values).all():
        return values
    return np.nan_to_num(values, copy=copy, nan=0.0, posinf=1e30, neginf=-1e30)


def column_mean_std(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and population standard deviation of an ``(n, d)`` matrix.

    Bit-identical to ``(matrix.mean(axis=0), matrix.std(axis=0))`` — it is
    NumPy's own recipe, ufunc for ufunc, with the mean computed once and
    without ``std``'s centred ``(n, d)`` copy.  NumPy reduces that copy row
    by row, so the squared deviations are added up the same way, one row at
    a time, in the ``std`` output itself, through one reused scratch row of
    at most :data:`_SCRATCH_ROW` coordinates.  Where the centred copy's
    columns are contiguous (a column-major matrix, or ``d = 1``) NumPy sums
    each column pairwise instead; those layouts centre one
    ``(n, LANE_BLOCK + 1)`` block at a time, laid out like the matrix, and
    reduce it as NumPy would.  Every step is per-column, so the block width
    cannot change a bit once a width-1 tail is folded into the block before
    it (:func:`reduction_blocks`).
    """
    matrix = ensure_float(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={matrix.ndim}")
    n, d = matrix.shape
    # NumPy divides by an integer count, which at float32 runs the float64
    # loop through cast buffers; rounding that quotient to float32 gives the
    # bits of dividing in float32, so the count takes the matrix's dtype.
    count = matrix.dtype.type(n)
    mean = np.empty(d, dtype=matrix.dtype)
    std = np.empty(d, dtype=matrix.dtype)
    pairwise = d == 1 or abs(matrix.strides[0]) < abs(matrix.strides[1])
    if pairwise:
        # Laid out like the matrix, as the copy NumPy's ``_var`` centres into is.
        width, scratch = LANE_BLOCK, np.empty_like(matrix[:, : LANE_BLOCK + 1])
    else:
        width, scratch = _SCRATCH_ROW, np.empty_like(matrix[0, : _SCRATCH_ROW + 1])
    for lo, hi in reduction_blocks(d, width):
        block, block_mean, block_std = matrix[:, lo:hi], mean[lo:hi], std[lo:hi]
        np.add.reduce(block, axis=0, out=block_mean)
        np.true_divide(block_mean, count, out=block_mean)
        if pairwise:
            deviation = scratch[:, : hi - lo]
            np.subtract(block, block_mean, out=deviation)
            np.square(deviation, out=deviation)
            np.add.reduce(deviation, axis=0, out=block_std)
        else:
            deviation = scratch[: hi - lo]
            np.subtract(block[0], block_mean, out=block_std)
            np.square(block_std, out=block_std)
            for row in block[1:]:
                np.subtract(row, block_mean, out=deviation)
                np.square(deviation, out=deviation)
                np.add(block_std, deviation, out=block_std)
        np.true_divide(block_std, count, out=block_std)
        np.sqrt(block_std, out=block_std)
    return mean, std


def pairwise_squared_distances(
    votes, block_size: int | None = None, clamp_non_finite: bool = False
) -> np.ndarray:
    """Compute the ``(n, n)`` matrix of squared Euclidean distances.

    Uses the ``||x||² + ||y||² − 2·x·y`` identity with the squared norms
    read off the Gram diagonal, so the whole computation is a single matrix
    multiplication; numerical noise is clipped at zero.

    ``votes`` is an ``(n, d)`` matrix or a
    :class:`~repro.core.vote_tensor.RowSelection`.  With ``block_size`` set,
    the Gram matrix accumulates over coordinate blocks so the peak temporary
    is O(n² + n · block).  A selection is always read that
    way, through :meth:`~repro.core.vote_tensor.RowSelection.lanes` into one
    reused ``(block, n)`` buffer (``None``: :data:`LANE_BLOCK` wide), so its
    dense matrix never exists.  ``clamp_non_finite`` gives each block
    :func:`finite_stand_ins` first.  The block partial sums can differ from
    the monolithic reduction in the last ulp, so a Krum-family ranking of
    two nearly equal distances (or of a colluding payload's twins) can
    depend on the width.
    """
    if hasattr(votes, "lanes"):  # a RowSelection (not imported: it imports this module)
        (n, d), dtype = votes.shape, votes.dtype
        blocks = _lane_blocks(votes, block_size or LANE_BLOCK, clamp_non_finite)
    else:
        matrix = ensure_float(votes)
        if matrix.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got ndim={matrix.ndim}")
        (n, d), dtype = matrix.shape, matrix.dtype
        blocks = (matrix[:, lo:hi] for lo, hi in block_ranges(d, block_size))
        if clamp_non_finite:
            blocks = (finite_stand_ins(block, copy=True) for block in blocks)
    gram = np.zeros((n, n), dtype=dtype)
    # A row clamped to +-1e30 (Aggregator.__call__'s stand-in for +-inf)
    # squares past float32's range: its distances come out inf or NaN, both
    # of which sort after every finite distance, so such a row is never a
    # near neighbour.  That is the intended reading, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            gram += block @ block.T
        norms = np.diagonal(gram)
        sq = norms[:, None] + norms[None, :] - 2.0 * gram
        np.maximum(sq, 0.0, out=sq)
    np.fill_diagonal(sq, 0.0)
    return sq


def _lane_blocks(selection, width: int, clamp_non_finite: bool):
    """A selection's ``(n, block)`` coordinate blocks, each the transposed
    view of one reused ``(width, n)`` lane buffer."""
    n, d = selection.shape
    buffer = np.empty((min(d, width), n), dtype=selection.dtype)
    for lo, hi in block_ranges(d, width):
        lanes = buffer[: hi - lo]
        selection.lanes(lo, hi, lanes, clamp_non_finite=clamp_non_finite)
        yield lanes.T
