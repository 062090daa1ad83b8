"""The lane-blocked kernels are bit-identical to the full-width ones they replaced.

``coordinate_median``, ``column_mean_std`` and the vote's ``_rows_equal`` walk
``d`` in coordinate blocks through one small buffer (``LANE_BLOCK`` wide when
the caller names no width).  Everything here compares with ``np.array_equal``,
never ``allclose``: against ``np.median`` / ``mean`` / ``std`` of the whole
matrix, and against the dense ``_bit_label_matrix`` oracle for the vote.  The
last class bounds what the kernels may allocate while they run.
"""

import tracemalloc

import numpy as np
import pytest

from repro.aggregation import majority
from repro.aggregation.majority import (
    _bit_label_matrix,
    _labels_from_ids,
    _row_bits,
    _rows_equal,
    majority_vote_tensor,
    majority_vote_votetensor,
    override_content_ids,
)
from repro.aggregation.median import coordinate_median
from repro.assignment.mols import MOLSAssignment
from repro.core.vote_tensor import VoteTensor
from repro.utils.arrays import LANE_BLOCK, column_mean_std

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
        for d in DIMS:
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
    assert tensor.is_lazy

    ids = override_content_ids(tensor, block_size)
    oracle = _bit_label_matrix(tensor.copy().values)
    assert np.array_equal(_labels_from_ids(ids), oracle)
    # the equal rows are classed with the base, every other override is not
    overridden = np.array([row is not None for row in payload_rows])
    equal = np.array([0, 5])
    assert not ids[equal].any()
    unequal = np.setdiff1d(np.nonzero(overridden)[0], equal)
    assert (ids[unequal, unequal % 3] != 0).all()

    winners, counts = majority_vote_votetensor(tensor, block_size=block_size)

    winners = winners.densified()
    dense_winners, dense_counts = majority_vote_tensor(tensor.copy().values)
    assert np.array_equal(winners, dense_winners)
    assert np.array_equal(counts, dense_counts)


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
    winners, counts = majority_vote_votetensor(tensor, block_size=block_size)
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


@pytest.mark.parametrize("tolerance", [0.0, 0.5], ids=["exact", "tolerance"])
@pytest.mark.parametrize("dense_input", [False, True], ids=["lazy", "dense"])
def test_vote_kernels_read_a_read_only_cube(dense_input, tolerance, monkeypatch):
    """The dense cube reaches the labelling kernel as a read-only view, while
    the tensor's own ``values`` stay writable for its owner."""
    assignment = MOLSAssignment(load=5, replication=3).assignment
    honest = np.random.default_rng(8).standard_normal((assignment.num_files, 6))
    tensor = VoteTensor.from_honest(assignment, honest)
    tensor.write_slots([0, 0, 4], [0, 1, 2], np.full(6, -3.0))
    if dense_input:
        tensor = VoteTensor(tensor.copy().values, tensor.workers)
    received = []

    def spy(values, block_size=None):
        received.append(values)
        return _bit_label_matrix(values, block_size=block_size)

    monkeypatch.setattr(majority, "_bit_label_matrix", spy)
    majority_vote_votetensor(tensor, tolerance=tolerance)
    if not dense_input and tolerance == 0.0:
        assert not received  # a lazy exact vote never builds the cube
        return
    assert received and not any(values.flags.writeable for values in received)
    assert tensor.values.flags.writeable


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
    allocation exceeds ``n * (LANE_BLOCK + 1) * itemsize``."""

    n, d = 25, 40 * LANE_BLOCK + 1
    bound = n * (LANE_BLOCK + 1) * 8

    @pytest.fixture(scope="class")
    def matrix(self):
        return np.random.default_rng(0).standard_normal((self.n, self.d))

    def test_coordinate_median(self, matrix):
        assert transient_bytes(lambda: coordinate_median(matrix)) <= self.bound

    def test_column_mean_std(self, matrix):
        assert transient_bytes(lambda: column_mean_std(matrix)) <= self.bound

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
