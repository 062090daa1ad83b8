"""The lane-blocked kernels are bit-identical to the full-width ones they replaced.

``coordinate_median``, ``column_mean_std`` and the vote's ``_rows_equal`` walk
``d`` in coordinate blocks through one small buffer (the median's own
``median._LANE_BLOCK``; ``LANE_BLOCK`` wide for the vote when the caller
names no width, narrowed further so that a gathered block stays within
256 KiB however many rows it gathers; ``column_mean_std`` adds up its
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
    _labels_from_ids,
    _reference_exact_majority,
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
from repro.core.vote_tensor import RowSelection, VoteTensor
from repro.utils.arrays import _SCRATCH_ROW, GATHER_ELEMENTS, LANE_BLOCK, column_mean_std

from cow_helpers import cube_of

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


def byte_labels(cube):
    """``labels[i, k]``: the smallest slot of file ``i`` holding slot ``k``'s bytes."""
    labels = np.zeros(cube.shape[:2], dtype=np.int64)
    for i, copies in enumerate(cube):
        seen: dict[bytes, int] = {}
        for k, copy in enumerate(copies):
            labels[i, k] = seen.setdefault(copy.tobytes(), k)
    return labels


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
    assert np.array_equal(_labels_from_ids(ids), byte_labels(cube))
    # the equal rows are classed with the base, every other override is not
    overridden = np.array([row is not None for row in payload_rows])
    equal = np.array([0, 5])
    assert not ids[equal].any()
    unequal = np.setdiff1d(np.nonzero(overridden)[0], equal)
    assert (ids[unequal, unequal % 3] != 0).all()

    winners, counts, _, _ = majority_vote_votetensor(tensor, block_size=block_size)

    votes = [_reference_exact_majority(copies) for copies in cube]
    assert winners.densified().tobytes() == np.vstack([w for w, _ in votes]).tobytes()
    assert counts.tolist() == [c for _, c in votes]


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
    assert tensor.num_override_rows == 2
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
        """Clamped, as a round runs it: its own ``(block, n)`` lane buffer
        and that buffer's ``isfinite`` image, 223 KiB measured.  It took
        0.88 MiB while the median's blocks were ``LANE_BLOCK`` wide."""
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

    @pytest.mark.parametrize("negative", [True, False], ids=["minus", "plus"])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_alie_builds_its_payload_in_place(self, matrix, dtype, negative):
        """The payload is ``mean + direction * z * std`` bit for bit, built in
        the two vectors ``column_mean_std`` returned: beyond the payload it
        holds one ``std`` vector and what the statistics hold while they run
        (their scratch row, and at float32 NumPy's two 64 KiB cast buffers).
        1.10 ``(d,)`` vectors measured at float64 and 1.30 at float32; both
        took 2.00 while the expression made a product and a sum of its own."""
        honest = matrix.astype(dtype)
        honest.setflags(write=False)
        assignment = RamanujanAssignment(m=5, s=5).assignment
        byzantine = (0, 2, 4, 6, 8)
        context = AttackContext(assignment, byzantine, honest)
        attack = ALIEAttack(negative_direction=negative)
        z = alie_z_max(assignment.num_workers, len(byzantine))
        direction = -1.0 if negative else 1.0
        expected = honest.mean(axis=0) + direction * z * honest.std(axis=0)
        assert_same_bits(attack.payload(context), expected)
        statistics = transient_bytes(lambda: column_mean_std(honest))
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

    # The vote's comparison and hashes gather ``(rows, width)`` blocks whose
    # width shrinks with the row count: at most ``GATHER_ELEMENTS`` elements
    # (256 KiB as uint64) per gathered block, whatever ``block_size``.  A cell
    # round compares ~70 (payload, file) pairs, which at width 4096 gathered
    # 1.09 MiB a side; hashing 24 float32 rows widened 0.75 MiB to uint64.
    pairs, live, wide = 70, 24, 3 * LANE_BLOCK + 1
    gather = GATHER_ELEMENTS * 8

    @pytest.fixture(scope="class")
    def bits(self):
        """``(pairs, wide)`` random uint64 rows."""
        rng = np.random.default_rng(11)
        return rng.integers(0, 2**63, size=(self.pairs, self.wide), dtype=np.uint64)

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_rows_equal_over_many_distinct_pairs(self, bits, block_size):
        """All pairs equal (no early exit) but two, which differ late: the
        answer is the full-width comparison's, and the sweep holds two
        gathered blocks and their bool image: 544 KiB at most, where one
        4096-wide block of 70 uint64 rows alone is 2.2 MiB."""
        other = bits.copy()
        other[3, -1] ^= 1
        other[40, self.wide // 2] ^= 1
        rows = np.arange(self.pairs)

        def compare():
            return _rows_equal(
                _row_bits(bits, rows), _row_bits(other, rows), self.pairs, self.wide, block_size
            )

        assert np.array_equal(compare(), (bits == other).all(axis=1))
        assert transient_bytes(compare) <= 2 * self.gather + self.gather // 8

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_hashes_of_many_float32_rows(self, bits, block_size):
        """The exact hash sum of 24 float32 rows, in blocks whose gathered
        bits and uint64 widening stay within the budget."""
        float32_bits = np.ascontiguousarray(bits[: self.live], dtype=np.uint32)
        rows = np.arange(self.live)
        full = np.einsum("mb,b->m", float32_bits.astype(np.uint64), _hash_weights(self.wide))

        def hashes():
            return _accumulate_hashes(
                _row_bits(float32_bits, rows), self.live, self.wide, block_size
            )

        assert np.array_equal(hashes(), full)
        assert transient_bytes(hashes) <= self.gather + self.gather // 2

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_ids_of_a_round_with_many_distinct_pairs(self, block_size):
        """A round with 70 distinct (payload, file) pairs — a row shared by
        every file, late-differing rows and copies of the base — classes as
        the full-width ``tobytes()`` oracle at every width."""
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
        assert np.array_equal(_labels_from_ids(ids), byte_labels(cube))
        assert np.array_equal(ids, override_content_ids(tensor, d))
