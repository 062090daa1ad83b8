"""The lane-blocked kernels are bit-identical to the full-width ones they replaced.

``coordinate_median``, ``column_mean_std`` and the vote's ``_rows_equal`` walk
``d`` in coordinate blocks through one small buffer (the median's own
``median._LANE_BLOCK``; ``LANE_BLOCK`` wide for the vote when the caller
names no width, narrowed further so that what one block gathers stays
within 256 KiB however many rows it gathers; ``column_mean_std`` adds up its
squared deviations row by row through one ``_SCRATCH_ROW``-wide row).
Everything here compares with ``np.array_equal``, never ``allclose``:
against ``np.median`` / ``mean`` / ``std`` of the whole matrix, and against
per-file ``tobytes()`` classes for the vote.  The last class bounds what
the kernels may allocate while they run.
"""

import tracemalloc

import numpy as np
import pytest

from repro.aggregation import majority
from repro.aggregation.majority import (
    _accumulate_hashes,
    _hash_weights,
    _row_bits,
    _rows_equal,
    majority_vote_votetensor,
    override_content_ids,
)
from repro.aggregation.bulyan import BulyanAggregator
from repro.aggregation.median import _LANE_BLOCK as MEDIAN_BLOCK, coordinate_median
from repro.assignment.mols import MOLSAssignment
from repro.assignment.ramanujan import RamanujanAssignment
from repro.attacks.adaptive import FangAdaptiveAttack, MinMaxAttack
from repro.attacks.alie import ALIEAttack, alie_z_max
from repro.attacks.base import AttackContext
from repro.core.vote_tensor import _GATHER_COLUMNS, RowSelection, VoteTensor
from repro.utils.arrays import _SCRATCH_ROW, GATHER_ELEMENTS, LANE_BLOCK, column_mean_std

from cow_helpers import cube_of, stored_rows
from reference_round import content_ids
from reference_vote import reference_vote

ROWS = (1, 2, 5, 9, 24, 25)
DIMS = (1, 2, 63, LANE_BLOCK - 1, LANE_BLOCK, LANE_BLOCK + 1, 2 * LANE_BLOCK + 1, 11_274)
DTYPES = (np.float32, np.float64)


def scaled_matrix(n, d, dtype, seed):
    """Gaussian rows whose scales span 1e-3 ... 1e3, in a buffer twice as big."""
    rng = np.random.default_rng(seed)
    scales = np.logspace(-3, 3, num=n)[rng.permutation(n)]
    return (rng.standard_normal((2 * n, 2 * d + 1)) * np.tile(scales, 2)[:, None]).astype(dtype)


def input_layouts(n, d, dtype, seed):
    """The same kind of ``(n, d)`` data as the callers hand it over."""
    big = scaled_matrix(n, d, dtype, seed)
    read_only = np.ascontiguousarray(big[:n, :d])
    read_only.setflags(write=False)  # the attack context's matrix
    return {
        "contiguous": np.ascontiguousarray(big[n:, :d]),
        "read_only": read_only,
        "strided_columns": big[:n, 1::2],
        "strided_rows": big[::2, :d],
        "column_major": np.asfortranarray(big[:n, d : 2 * d]),
    }


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", ROWS)
class TestBlockedReductions:
    def test_median_equals_numpy_median(self, n, dtype):
        for d in DIMS + (MEDIAN_BLOCK - 1, MEDIAN_BLOCK, MEDIAN_BLOCK + 1):
            for name, matrix in input_layouts(n, d, dtype, seed=n * d).items():
                assert matrix.shape == (n, d), name
                assert_same_bits(coordinate_median(matrix), np.median(matrix, axis=0))

    def test_mean_and_std_equal_numpy(self, n, dtype):
        for d in DIMS:
            for name, matrix in input_layouts(n, d, dtype, seed=n + d).items():
                assert matrix.shape == (n, d), name
                mean, std = column_mean_std(matrix)
                assert_same_bits(mean, matrix.mean(axis=0))
                assert_same_bits(std, matrix.std(axis=0))


def test_negative_zero_median_maps_to_positive_zero():
    """``np.mean`` over the middle slice is what turns -0.0 into +0.0."""
    matrix = np.zeros((5, LANE_BLOCK + 3))
    matrix[:3] = -0.0
    matrix[:, 1::2] *= -1.0
    result = coordinate_median(matrix)
    assert_same_bits(result, np.median(matrix, axis=0))
    assert not np.signbit(result).any()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", [2, 4, 24])
def test_even_n_signed_zero_tie_maps_to_positive_zero(n, dtype):
    """Even ``n``: the lower middle is the largest vote below rank ``n // 2``,
    and a pair of zeros of any signs — both -0.0 included, whichever zero
    ``np.maximum`` keeps — averages to +0.0, as ``np.median`` has it."""
    matrix = np.zeros((n, LANE_BLOCK + 3), dtype=dtype)
    matrix[: n // 2 + 1] = -0.0  # both middle votes -0.0 (the even columns)
    matrix[n // 2 + 1 :] = 1.0
    matrix[:, 1::2] = np.where(np.arange(n)[:, None] % 2, 0.0, -0.0)  # mixed signs
    if n > 2:
        matrix[0, 2::3] = -5.0
    result = coordinate_median(matrix)
    assert_same_bits(result, np.median(matrix, axis=0))
    assert not np.signbit(result).any()


def test_width_one_tail_is_what_moves_the_last_ulp():
    """Why ``column_mean_std`` folds a width-1 tail into its neighbour: the
    last column reduced on its own is pairwise, not row by row, and differs
    from ``mean(axis=0)`` on some of 200 random draws at n = 25."""
    rng = np.random.default_rng(1)
    differs = 0
    for _ in range(200):
        matrix = rng.standard_normal((25, LANE_BLOCK + 1))
        alone = np.add.reduce(matrix[:, -1:], axis=0) / 25
        differs += alone[0] != matrix.mean(axis=0)[-1]
        mean, std = column_mean_std(matrix)
        assert mean[-1] == matrix.mean(axis=0)[-1]
        assert std[-1] == matrix.std(axis=0)[-1]
    assert differs > 0


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("layout", ["contiguous", "column_major"])
def test_mean_and_std_of_non_finite_rows_equal_numpy(layout, dtype):
    """Rows holding NaN, +inf and -inf (alone, together in one column, and
    one column of +inf only): mean and std are NumPy's, NaN for NaN, bit for
    bit, in the streamed and in the column-contiguous path."""
    n, d = 9, LANE_BLOCK + 3
    matrix = scaled_matrix(n, d, dtype, seed=21)[:n, :d]
    matrix[2, [0, 7, d - 1]] = np.nan
    matrix[5, [1, 7, d - 2]] = np.inf
    matrix[6, [2, 7, d - 1]] = -np.inf
    matrix[:, 3] = np.inf
    matrix = np.asfortranarray(matrix) if layout == "column_major" else matrix.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        mean, std = column_mean_std(matrix)
        expected = (matrix.mean(axis=0), matrix.std(axis=0))
    for actual, reference in zip((mean, std), expected):
        assert actual.dtype == reference.dtype
        assert np.array_equal(actual.view(np.uint8), reference.view(np.uint8))
    assert np.isnan(std[[0, 1, 2, 3, 7, d - 2, d - 1]]).all()


# --------------------------------------------------------------------------- #
# The vote's row comparison
# --------------------------------------------------------------------------- #
BLOCK_SIZES = (None, 1, 7, 4096)


def flip_last_bit(index):
    def make(row):
        bits = row.view(np.uint64 if row.dtype == np.float64 else np.uint32)
        bits[index] ^= 1
        return row

    return make


def nan_at(index):
    def make(row):
        row[index] = np.nan
        return row

    return make


def negative_zero_at(index):
    def make(row):
        row[index] = -0.0
        return row

    return make


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("block_size", BLOCK_SIZES)
@pytest.mark.parametrize("dim", (1, 6, 15, LANE_BLOCK + 1, 2 * LANE_BLOCK + 5))
def test_override_ids_match_the_dense_oracle(dim, block_size, dtype):
    """Equal and unequal rows in one round, written to slot ``file % 3`` of
    files 0-8: a copy of the base (equal), rows differing only in coordinate
    0, only in coordinate d-1 (a width-1 tail at two of the dims), a NaN
    payload, and -0.0 against the base's +0.0."""
    payload_rows = [
        lambda row: row,
        flip_last_bit(0),
        flip_last_bit(dim - 1),
        None,
        nan_at(dim - 1),
        lambda row: row,
        flip_last_bit(dim // 2),
        flip_last_bit(dim - 1),
    ]
    payload_rows.append(negative_zero_at(dim - 1))
    assignment = MOLSAssignment(load=5, replication=3).assignment
    base = np.random.default_rng(dim).standard_normal((assignment.num_files, dim))
    base = base.astype(dtype)
    base[8, dim - 1] = 0.0  # the last payload differs from it in the sign of zero alone
    tensor = VoteTensor.from_honest(assignment, base)
    for file, make_row in enumerate(payload_rows):
        if make_row is not None:
            tensor.write_slots([file], [file % 3], make_row(base[file].copy()))
    cube = cube_of(tensor)

    ids = override_content_ids(tensor, block_size)
    assert np.array_equal(ids, content_ids(base, cube)[0])
    # the equal rows are classed with the base, every other override is not
    overridden = np.array([row is not None for row in payload_rows])
    equal = np.array([0, 5])
    assert not ids[equal].any()
    unequal = np.setdiff1d(np.nonzero(overridden)[0], equal)
    assert (ids[unequal, unequal % 3] != 0).all()

    winners, counts, _, _ = majority_vote_votetensor(tensor, block_size=block_size)

    expected, expected_counts = reference_vote(cube)
    assert winners.densified().tobytes() == expected.tobytes()
    assert counts.tolist() == expected_counts.tolist()


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_equal_bit_nan_payloads_are_one_class(block_size):
    """Two slots of a file holding the same NaN payload in separately written
    rows out-vote the honest copy, as ``tobytes()`` equality has it."""
    dim = LANE_BLOCK + 1
    assignment = MOLSAssignment(load=5, replication=3).assignment
    base = np.random.default_rng(3).standard_normal((assignment.num_files, dim))
    payload = base[4].copy()
    payload[-1] = np.nan
    tensor = VoteTensor.from_honest(assignment, base)
    tensor.write_slots([4, 4], [0, 2], np.stack([payload, payload]))
    assert stored_rows(tensor) == 2
    ids = override_content_ids(tensor, block_size)
    assert ids[4, 0] == ids[4, 2] != 0
    winners, counts, _, _ = majority_vote_votetensor(tensor, block_size=block_size)
    winners = winners.densified()
    assert counts[4] == 2
    assert np.array_equal(winners[4], payload, equal_nan=True)


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_early_exit_still_finds_a_row_that_differs_last(block_size):
    """The sweep may stop once *no* row is still equal — never before: with
    one row differing in block 0 and another only in the last coordinate,
    the equal row and the late one must both be classed right."""
    dim = 3 * LANE_BLOCK + 1
    bits = np.random.default_rng(5).integers(0, 2**63, size=(4, dim), dtype=np.uint64)
    other = bits.copy()
    other[1, 0] ^= 1
    other[2, dim - 1] ^= 1
    rows = np.arange(4)
    equal = _rows_equal(_row_bits(bits, rows), _row_bits(other, rows), 4, dim, block_size)
    assert equal.tolist() == [True, False, False, True]
    # every row unequal from block 0 on: the sweep stops, the answer stands
    assert not _rows_equal(
        _row_bits(bits, rows), _row_bits(~bits, rows), 4, dim, block_size
    ).any()


def test_hash_weights_are_one_vector_grown_to_the_widest_row(monkeypatch):
    """A width's weights are a fresh draw of that width (so every hash and
    id keeps its bits), and after votes at two widths only the wider
    vector is held."""
    monkeypatch.setattr(majority, "_HASH_WEIGHTS", np.empty(0, dtype=np.uint64))
    for d in (94_218, 11_274, 7):
        drawn = np.random.default_rng(0xB125_517D).integers(1, 2**63, size=d, dtype=np.uint64)
        assert np.array_equal(_hash_weights(d), drawn | np.uint64(1))
    monkeypatch.setattr(majority, "_HASH_WEIGHTS", np.empty(0, dtype=np.uint64))
    assignment = MOLSAssignment(load=5, replication=3).assignment
    for d, held in ((9, 9), (40, 40), (9, 40)):
        tensor = VoteTensor.from_honest(assignment, np.zeros((assignment.num_files, d)))
        tensor.write_slots([0, 1], [0, 0], np.ones((2, d)))
        majority_vote_votetensor(tensor)
        assert majority._HASH_WEIGHTS.shape == (held,)


def test_vote_kernels_read_only_read_only_rows(monkeypatch):
    """The vote compares and hashes the payload store and the honest base
    through read-only views, while the caller's honest matrix stays writable
    for its owner."""
    assignment = MOLSAssignment(load=5, replication=3).assignment
    honest = np.random.default_rng(8).standard_normal((assignment.num_files, 6))
    tensor = VoteTensor.from_honest(assignment, honest)
    tensor.write_slots([0, 0, 4], [0, 1, 2], np.full(6, -3.0))
    received = []

    def spy(bits, rows):
        received.append(bits)
        return _row_bits(bits, rows)

    monkeypatch.setattr(majority, "_row_bits", spy)
    majority_vote_votetensor(tensor)
    assert received and not any(bits.flags.writeable for bits in received)
    assert honest.flags.writeable


# --------------------------------------------------------------------------- #
# What the kernels allocate
# --------------------------------------------------------------------------- #
#: allowance for the array headers, views and loop variables tracemalloc also sees
PYTHON_OBJECTS = 4096


def transient_bytes(fn):
    """Peak traced memory of ``fn()`` above its start, less what it returns."""
    fn()  # warm caches so the steady state is what is measured
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = result if isinstance(result, tuple) else (result,)
    return peak - start - sum(array.nbytes for array in returned) - PYTHON_OBJECTS


class TestNoFullWidthTemporary:
    """At d = 40 blocks a single full-width temporary — a transposed copy, a
    centred copy, a gathered ``(n, d)`` bit image or even its bool mask — is
    5 to 40 times the bound, so staying under it means none was made: no
    allocation exceeds ``n * (LANE_BLOCK + 1) * itemsize``.
    The median is held to its own narrower lane block, ``column_mean_std``
    to its one scratch row, ALIE to one vector beyond its statistics and
    the vote over many distinct rows to its fixed gather budget instead;
    Bulyan and the line-search payloads are held to what they keep at the
    adaptive round's width."""

    n, d = 25, 40 * LANE_BLOCK + 1
    bound = n * (LANE_BLOCK + 1) * 8

    @pytest.fixture(scope="class")
    def matrix(self):
        return np.random.default_rng(0).standard_normal((self.n, self.d))

    def test_coordinate_median(self, matrix):
        """Clamped, as a round runs it: its own ``(block, n)`` lane buffer,
        200 KiB measured, and room for that buffer's ``isfinite`` image,
        which it built for every block (223 KiB) until a finite sum over
        the block stood in for it.  It took 0.88 MiB while the median's
        blocks were ``LANE_BLOCK`` wide."""
        lanes = self.n * (MEDIAN_BLOCK + 1)
        buffer_and_image = lanes * 8 + lanes
        clamped = transient_bytes(lambda: coordinate_median(matrix, clamp_non_finite=True))
        assert clamped <= buffer_and_image

    def test_column_mean_std(self, matrix):
        """One ``(_SCRATCH_ROW + 1,)`` row, the allowance for small objects
        aside: 126 KiB measured, where the centred ``(n, LANE_BLOCK + 1)``
        block took 0.78 MiB."""
        scratch_row = (_SCRATCH_ROW + 1) * 8
        assert transient_bytes(lambda: column_mean_std(matrix)) <= scratch_row

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_alie_builds_its_payload_in_place(self, matrix, dtype):
        """The payload is ``mean + (-z) * std`` bit for bit, built in
        the two vectors ``column_mean_std`` returned: beyond the payload it
        holds one ``std`` vector and the statistics' one scratch row, in the
        matrix's dtype.  1.10 ``(d,)`` vectors measured in both dtypes.  At
        float32 it took 1.30 while the statistics divided by an integer
        count, through NumPy's two 64 KiB cast buffers, and both dtypes took
        2.00 while the expression made a product and a sum of its own."""
        honest = matrix.astype(dtype)
        honest.setflags(write=False)
        assignment = RamanujanAssignment(m=5, s=5).assignment
        byzantine = (0, 2, 4, 6, 8)
        context = AttackContext(assignment, byzantine, honest)
        attack = ALIEAttack()
        z = alie_z_max(assignment.num_workers, len(byzantine))
        expected = honest.mean(axis=0) + -z * honest.std(axis=0)
        assert_same_bits(attack.payload(context), expected)
        statistics = transient_bytes(lambda: column_mean_std(honest))
        assert statistics <= (_SCRATCH_ROW + 1) * np.dtype(dtype).itemsize
        budget = self.d * np.dtype(dtype).itemsize + statistics + PYTHON_OBJECTS
        assert transient_bytes(lambda: attack.payload(context)) <= budget

    def test_rows_equal_against_a_shared_payload(self, matrix):
        """The ALIE round's comparison: one payload row against all n base rows."""
        base_bits = matrix.view(np.uint64)
        payload_bits = base_bits[:1].copy()
        rows = np.arange(self.n)

        def compare_all_blocks():
            # the payload equals row 0 throughout, so no early exit helps
            return _rows_equal(
                _row_bits(payload_bits, np.zeros(self.n, dtype=np.int64)),
                _row_bits(base_bits, rows),
                self.n,
                self.d,
                None,
            )

        assert compare_all_blocks().tolist() == [True] + [False] * (self.n - 1)
        # one gathered block, its bool image (an eighth of it) and the 64 KiB
        # buffer NumPy iterates the broadcast payload row through
        assert transient_bytes(compare_all_blocks) <= self.bound * 5 // 4

    # The adaptive-bulyan-noniid round at its own width: Bulyan over the
    # vote's (25, 11274) winners and the min-max payload over the honest
    # matrix.  One dense (25, 11274) copy alone is 2.75 times the bound.
    round_d = 11_274
    #: one ``(513, theta)`` block of Bulyan's trim at q = 3, theta = 19
    lane_block = (512 + 1) * (n - 6) * 8

    @pytest.fixture(scope="class")
    def winners(self):
        """Three files share a colluding store row, one reads a stored zero row."""
        rng = np.random.default_rng(13)
        base = rng.standard_normal((self.n, self.round_d))
        store = np.vstack([rng.standard_normal((1, self.round_d)), np.zeros(self.round_d)])
        files, row_ids = np.array([2, 9, 14, 20]), np.array([0, 0, 0, 1])
        return RowSelection(base, files, row_ids, store)

    def test_bulyan_streams_a_patched_selection(self, winners):
        """Both passes read 512-wide lane blocks, and the trim only the
        theta selected rows: at its peak it holds three ``(513, theta)``
        blocks (the lanes, their deviations, their argsort).  0.236 MiB
        measured; the bound is four blocks (0.297 MiB).  It took 0.53 MiB
        while the trim read all n lanes of a block and kept the deviations
        through the take, and 4.67 MiB with the densified copy, the
        ``(beta, d)`` operand and 2048-wide lanes."""
        trim = transient_bytes(lambda: BulyanAggregator(3)(winners))
        assert trim <= 4 * self.lane_block

    @pytest.mark.parametrize(
        "attack",
        [MinMaxAttack(direction=d) for d in MinMaxAttack.DIRECTIONS]
        + [FangAdaptiveAttack(defense="krum")],
        ids=[*MinMaxAttack.DIRECTIONS, "fang-krum"],
    )
    def test_line_search_payloads_chunk_their_rows(self, winners, attack):
        """``a`` and ``b`` over row chunks: one chunk beside ``µ`` and the
        direction, 0.43 MiB measured for every attack; the bound is the
        chunk and three ``(d,)`` rows (0.51 MiB).  ``std`` took 0.87 MiB
        while ``column_mean_std`` centred ``(n, LANE_BLOCK + 1)`` blocks,
        and every attack 2.41 while one ``(f, d)`` ``µ − g`` was made."""
        assignment = RamanujanAssignment(m=5, s=5).assignment
        context = AttackContext(assignment, (0, 2, 4, 6, 8), winners.base)
        budget = self.gather + 3 * self.round_d * 8
        assert transient_bytes(lambda: attack.payload(context)) <= budget

    # A selection that leaves files out (they abstained) gathers its kept
    # base rows in ``_GATHER_COLUMNS``-wide slices of each lane block.
    @pytest.fixture(scope="class", params=[1, 3], ids=["1-abstained", "3-abstained"])
    def abstaining(self, request):
        """The vote's winners of a round where ``param`` files abstained:
        the kept base rows in file order, two files patched from one
        colluding store row."""
        rng = np.random.default_rng(17)
        base = rng.standard_normal((self.n, self.round_d))
        kept = np.delete(np.arange(self.n), rng.choice(self.n, request.param, replace=False))
        store = rng.standard_normal((1, self.round_d))
        return base, kept, store

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_lanes_of_a_selection_with_abstentions(self, abstaining, dtype):
        """Every lane block of the sweep beside ``out`` holds one
        ``(n, _GATHER_COLUMNS)`` slice of the kept rows, and the median of
        the selection is ``np.median`` of the densified matrix bit for bit.
        With one file abstained the lanes measured 48 KiB (float32) and
        96 KiB (float64) beyond ``out``.  The median reads a lane per base
        row (``per_base_row``, the abstained files' at -inf) and gathers no
        slice: 109 and 217 KiB with its ``(1024, 25)`` lane buffer and pair,
        where the gathered slices and the ``isfinite`` image (and, at
        float32, ``np.mean``'s float64 cast buffers) took it to 152 and
        304 KiB.  The lanes measured 96 and 192 KiB, and the median 200 and
        400 KiB, while each lane block was copied out of a gathered
        ``(n, 1024)`` block, two slices wide."""
        base, kept, store = abstaining
        selection = RowSelection(
            base.astype(dtype), np.array([2, 9]), np.array([0, 0]), store.astype(dtype), kept
        )
        n, itemsize = kept.size, np.dtype(dtype).itemsize
        sub_block = n * _GATHER_COLUMNS * itemsize

        def sweep():
            out = np.empty((MEDIAN_BLOCK, n), dtype=dtype)
            for lo in range(0, self.round_d, MEDIAN_BLOCK):
                hi = min(lo + MEDIAN_BLOCK, self.round_d)
                selection.lanes(lo, hi, out[: hi - lo])
            return out

        # the small-object allowance twice: the sweep makes views of its own
        assert transient_bytes(sweep) <= sub_block + PYTHON_OBJECTS
        assert_same_bits(
            coordinate_median(selection, clamp_non_finite=True),
            np.median(selection.densified(), axis=0),
        )
        lanes = MEDIAN_BLOCK * n
        buffer_pair_and_image = lanes * itemsize + MEDIAN_BLOCK * 2 * itemsize + lanes
        median = transient_bytes(lambda: coordinate_median(selection, clamp_non_finite=True))
        assert median <= buffer_pair_and_image + sub_block

    # The vote's comparison and hashes gather ``(rows, width)`` blocks whose
    # width shrinks with the row count: both sides of a comparison together,
    # and the rows hashed, hold at most ``GATHER_ELEMENTS`` elements (256 KiB
    # as uint64), whatever ``block_size``; the hashes take a float32 round's
    # uint32 bits unwidened.  A cell round compares ~70 (payload, file)
    # pairs, which at width 4096 gathered 1.09 MiB a side; hashing 24
    # float32 rows widened 0.75 MiB to uint64.  The rows are gathered in
    # reverse, since the whole store in order is read through views (its
    # own test below) and would gather nothing.
    pairs, live, wide = 70, 24, 3 * LANE_BLOCK + 1
    gather = GATHER_ELEMENTS * 8

    @pytest.fixture(scope="class")
    def bits(self):
        """``(pairs, wide)`` random uint64 rows."""
        rng = np.random.default_rng(11)
        return rng.integers(0, 2**63, size=(self.pairs, self.wide), dtype=np.uint64)

    @pytest.mark.parametrize("count, width", [(pairs, wide), (1000, 3 * 64 + 5)])
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_rows_equal_over_many_distinct_pairs(self, count, width, block_size):
        """All pairs equal (no early exit) but two, which differ late: the
        answer is the full-width comparison's, and the sweep holds two
        gathered blocks that share one ``GATHER_ELEMENTS`` budget and their
        bool image: 272 KiB at most, where one 4096-wide block of 70 uint64
        rows alone is 2.2 MiB.  It measured 544 KiB while each side had a
        budget of its own.  The opening probe block is narrowed to the same
        budget: 1,000 pairs gathered 1 MiB while it was 64 coordinates wide
        whatever the row count."""
        bits = np.random.default_rng(11).integers(0, 2**63, size=(count, width), dtype=np.uint64)
        other = bits.copy()
        other[3, -1] ^= 1
        other[40, width // 2] ^= 1
        rows = np.arange(count)[::-1]

        def compare():
            return _rows_equal(
                _row_bits(bits, rows), _row_bits(other, rows), count, width, block_size
            )

        assert np.array_equal(compare(), (bits == other).all(axis=1)[rows])
        assert transient_bytes(compare) <= self.gather + GATHER_ELEMENTS // 2

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_hashes_of_many_float32_rows(self, bits, block_size):
        """The exact hash sum of 24 float32 rows, in blocks whose gathered
        uint32 bits stay within the budget and are widened only through
        NumPy's 64 KiB iterator buffer.  It measured 384 KiB while each
        block was widened to a uint64 copy first."""
        float32_bits = np.ascontiguousarray(bits[: self.live], dtype=np.uint32)
        rows = np.arange(self.live)[::-1]
        full = np.einsum(
            "mb,b->m", float32_bits[rows].astype(np.uint64), _hash_weights(self.wide)
        )

        def hashes():
            return _accumulate_hashes(
                _row_bits(float32_bits, rows), self.live, self.wide, block_size
            )

        assert np.array_equal(hashes(), full)
        assert transient_bytes(hashes) <= GATHER_ELEMENTS * 4 + (64 << 10)

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_the_whole_store_in_order_is_read_through_views(self, bits, block_size):
        """Rows naming every row of the store in order gather nothing: the
        comparison holds its bool image and NumPy's two 64 KiB iterator
        buffers (144 KiB, 142 KiB measured), the hashes that one buffer
        (63 KiB measured), where the gathered blocks took 269 and 191 KiB."""
        other = bits.copy()
        other[3, -1] ^= 1
        rows = np.arange(self.pairs)
        float32_bits = np.ascontiguousarray(bits[: self.live], dtype=np.uint32)

        def compare():
            return _rows_equal(
                _row_bits(bits, rows), _row_bits(other, rows), self.pairs, self.wide, block_size
            )

        def hashes():
            return _accumulate_hashes(
                _row_bits(float32_bits, rows[: self.live]), self.live, self.wide, block_size
            )

        full = np.einsum("mb,b->m", float32_bits.astype(np.uint64), _hash_weights(self.wide))
        assert np.array_equal(compare(), (bits == other).all(axis=1))
        assert np.array_equal(hashes(), full)
        assert transient_bytes(compare) <= 2 * (64 << 10) + GATHER_ELEMENTS // 2
        assert transient_bytes(hashes) <= 64 << 10

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_ids_of_a_round_with_many_distinct_pairs(self, block_size):
        """A round with 70 distinct (payload, file) pairs — a row shared by
        every file, late-differing rows and copies of the base — classes as
        the reference round's ``tobytes()`` ids at every width."""
        assignment = RamanujanAssignment(m=5, s=5).assignment
        f, d = assignment.num_files, 2 * LANE_BLOCK + 3
        rng = np.random.default_rng(12)
        base = rng.standard_normal((f, d)).astype(np.float32)
        tensor = VoteTensor.from_honest(assignment, base)
        files = np.arange(f)
        late = base.copy()
        late[:, -1] = np.nextafter(late[:, -1], np.float32(np.inf))
        tensor.write_slots(files, np.zeros(f), base[0])  # one row, 25 pairs
        tensor.write_slots(files, np.ones(f), late)
        tensor.write_slots(files[:20], np.full(20, 2), base[:20])
        files_written, _, rows, _ = tensor.override_table()
        assert np.unique(rows * f + files_written).size >= 64
        cube = cube_of(tensor)
        ids = override_content_ids(tensor, block_size)
        assert np.array_equal(ids, content_ids(base, cube)[0])
        assert np.array_equal(ids, override_content_ids(tensor, d))
