"""The vote's winners as a ``RowSelection``: same rows, same bytes, no ``(f, d)`` copy.

Every pipeline's ``post_vote_matrix`` hands on the honest base plus the few
rows that are not base rows.  The oracle for what those rows must be is the
single-file reference vote applied to each file's materialized (arrived)
copies — the dense winners matrix the vote returned before it stopped
copying — and every comparison here is bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.majority import (
    _reference_clustered_majority,
    _reference_exact_majority,
    majority_vote_votetensor,
)
from repro.aggregation.mean import MeanAggregator
from repro.aggregation.median import CoordinateWiseMedian, coordinate_median
from repro.aggregation.registry import available_aggregators, create_aggregator
from repro.assignment.baseline import BaselineAssignment
from repro.assignment.ramanujan import RamanujanAssignment
from repro.cluster.topology import GroupTopology
from repro.core.pipelines import ByzShieldPipeline, VanillaPipeline
from repro.core.vote_tensor import RowSelection, VoteTensor
from repro.exceptions import ConfigurationError
from repro.utils.arrays import LANE_BLOCK
from repro.utils.digest import array_digest

RAMANUJAN = RamanujanAssignment(m=5, s=5).assignment  # K = f = 25, r = 5
BASELINE = BaselineAssignment(num_workers=10).assignment
DIM = 37
BLOCK_SIZES = (None, 1, 7, 4096)
DTYPES = (np.float32, np.float64)


def attacked_round(assignment, dtype, seed=0):
    """A lazy round with every kind of slot: a colluding payload that
    out-votes the base on some files and loses on others, per-slot noise,
    and an override equal to its base."""
    rng = np.random.default_rng(seed)
    honest = rng.standard_normal((assignment.num_files, DIM)).astype(dtype)
    tensor = VoteTensor.from_honest(assignment, honest)
    workers = tensor.workers
    # whoever holds file 0 and file 7: those two files (at least) flip
    majority = assignment.replication // 2 + 1
    byzantine = set(workers[0, :majority].tolist()) | set(workers[7, -majority:].tolist())
    tensor.mark_byzantine(byzantine)
    files, slots = np.nonzero(tensor.byzantine_mask)
    tensor.write_slots(files, slots, np.full(DIM, -3.0, dtype=dtype))
    tensor.write_slots(files[:4], slots[:4], rng.standard_normal((4, DIM)).astype(dtype))
    tensor.write_slots([2], [0], honest[2])
    return tensor, honest


def reference_winners(cube, arrived=None, tolerance=0.0):
    """Per-file reference vote over the arrived copies; nobody arrived: zeros."""
    winners = np.zeros((cube.shape[0], cube.shape[2]), dtype=cube.dtype)
    for i, copies in enumerate(cube):
        if arrived is not None:
            copies = copies[arrived[i]]
        if len(copies) == 0:
            continue
        if tolerance == 0.0:
            winners[i] = _reference_exact_majority(copies)[0]
        else:
            winners[i] = _reference_clustered_majority(copies, tolerance)[0]
    return winners


def assert_stands_for(selection, dense):
    """``selection`` is ``dense`` in everything a consumer can observe."""
    assert isinstance(selection, RowSelection)
    assert selection.shape == dense.shape
    assert selection.dtype == dense.dtype
    assert selection.nbytes == dense.nbytes
    densified = selection.densified()
    assert not densified.flags.writeable
    assert densified.dtype == dense.dtype
    assert densified.tobytes() == np.ascontiguousarray(dense).tobytes()
    assert array_digest(selection) == array_digest(dense)
    runs = list(selection.row_runs())
    assert [repeats for _, repeats in runs] == [1] * dense.shape[0]
    assert all(not row.flags.writeable for row, _ in runs)
    assert selection.rows.nbytes <= dense.nbytes  # k = f: today's copy, no more
    for array in (selection.base, selection.rows):
        with pytest.raises(ValueError):
            array[...] = 0.0


def masks(kind, shape, seed=3):
    rng = np.random.default_rng(seed)
    if kind == "all-arrived":
        return None
    arrived = rng.random(shape) < 0.6
    if kind == "stragglers":  # nobody complete
        arrived[np.arange(shape[0]), rng.integers(shape[1], size=shape[0])] = False
    else:
        arrived[5] = True
    arrived[3] = False  # a file nobody returned in time
    return arrived


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("block_size", BLOCK_SIZES)
@pytest.mark.parametrize("dense_input", [False, True], ids=["lazy", "dense"])
@pytest.mark.parametrize("arrival", ["all-arrived", "partial", "stragglers"])
@pytest.mark.parametrize("vote", ["flat", "hier5", "tolerance"])
def test_winners_equal_the_reference_vote(vote, arrival, dense_input, block_size, dtype):
    tensor, honest = attacked_round(RAMANUJAN, dtype)
    cube = tensor.materialize_files(np.arange(tensor.num_files))
    if dense_input:
        tensor = VoteTensor(cube.copy(), tensor.workers, tensor.byzantine_mask)
    tolerance = 0.5 if vote == "tolerance" else 0.0
    pipeline = ByzShieldPipeline(
        RAMANUJAN,
        vote_tolerance=tolerance,
        topology=GroupTopology(25, 5) if vote == "hier5" else None,
        block_size=block_size,
    )
    arrived = masks(arrival, tensor.workers.shape)
    expected = reference_winners(cube, arrived, tolerance)

    selection = pipeline.post_vote_matrix(tensor, arrived)
    assert_stands_for(selection, expected)
    assert tensor.is_lazy != (dense_input or tolerance > 0)
    if arrival == "stragglers":
        assert selection.files.size == tensor.num_files
    elif arrival == "all-arrived" and tolerance == 0.0:
        # only winners that are not base rows are copied: on a lazy tensor
        # the flipped files (0 and 7 among them) and file 2, whose override
        # equals its base; on a dense one the winners outside slot 0
        flipped = np.nonzero((expected != honest).any(axis=1))[0]
        assert {0, 7} <= set(flipped.tolist())
        assert selection.files.size < tensor.num_files // 2
        if not dense_input:
            assert set(flipped.tolist()) <= set(selection.files.tolist())
            assert selection.files.size <= flipped.size + 1
    outcome = pipeline.aggregate_tensor(tensor, arrived)
    assert np.array_equal(outcome.aggregate, np.median(expected, axis=0))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("dense_input", [False, True], ids=["lazy", "dense"])
@pytest.mark.parametrize("arrival", ["all-arrived", "partial"])
def test_vanilla_rows_equal_the_arrived_returns(arrival, dense_input, dtype):
    rng = np.random.default_rng(1)
    honest = rng.standard_normal((BASELINE.num_files, DIM)).astype(dtype)
    tensor = VoteTensor.from_honest(BASELINE, honest)
    tensor.write_slots([1, 4], [0, 0], np.full(DIM, 9.0, dtype=dtype))
    cube = tensor.materialize_files(np.arange(tensor.num_files))
    if dense_input:
        tensor = VoteTensor(cube.copy(), tensor.workers, tensor.byzantine_mask)
    arrived = masks(arrival, tensor.workers.shape)
    expected = cube[:, 0] if arrived is None else cube[arrived[:, 0], 0]
    pipeline = VanillaPipeline(BASELINE, MeanAggregator())
    assert_stands_for(pipeline.post_vote_matrix(tensor, arrived), expected)
    outcome = pipeline.aggregate_tensor(tensor, arrived)
    assert np.array_equal(outcome.aggregate, MeanAggregator()(expected))


@pytest.mark.parametrize("topology", [None, GroupTopology(25, 5)], ids=["flat", "hier5"])
def test_honest_round_copies_no_row(topology):
    honest = np.random.default_rng(2).standard_normal((25, DIM))
    tensor = VoteTensor.from_honest(RAMANUJAN, honest)
    selection = ByzShieldPipeline(RAMANUJAN, topology=topology).post_vote_matrix(tensor)
    assert selection.files.size == 0 and selection.rows.shape == (0, DIM)
    assert np.shares_memory(selection.base, honest)
    dense = selection.densified()
    assert np.shares_memory(dense, honest) and not dense.flags.writeable
    assert_stands_for(selection, honest)


def test_select_slots_wants_one_slot_per_file():
    tensor = VoteTensor.from_honest(RAMANUJAN, np.zeros((25, 3)))
    with pytest.raises(ConfigurationError):
        tensor.select_slots(np.zeros(24, dtype=np.int64))
    with pytest.raises(ConfigurationError):
        RowSelection(np.zeros((4, 3)), np.array([1]), np.zeros((1, 2)))
    with pytest.raises(ConfigurationError):
        RowSelection(np.zeros((4, 3)), np.array([1]), np.zeros((1, 3), dtype=np.float32))
    with pytest.raises(ConfigurationError):
        RowSelection(np.zeros(3))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 9),
    d=st.integers(1, 45),
    dtype=st.sampled_from(DTYPES),
    strided=st.booleans(),
    data=st.data(),
)
def test_any_patch_set_reads_as_its_dense_matrix(n, d, dtype, strided, data):
    seed = data.draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    store = rng.standard_normal((n, 2, d)).astype(dtype)
    base = store[:, 0, :] if strided else np.ascontiguousarray(store[:, 0, :])
    files = np.array(
        data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)), dtype=np.int64
    )
    rows = rng.standard_normal((files.size, d)).astype(dtype)
    dense = base.copy()
    dense[files] = rows
    selection = RowSelection(base, files, rows)

    assert_stands_for(selection, dense)
    lo = data.draw(st.integers(0, d - 1))
    hi = data.draw(st.integers(lo + 1, d))
    lanes = np.full((hi - lo, n), np.nan, dtype=dtype)
    selection.lanes(lo, hi, lanes)
    assert np.array_equal(lanes, dense[:, lo:hi].T)
    expected = np.median(dense, axis=0)
    for result in (coordinate_median(selection), CoordinateWiseMedian()(selection)):
        assert result.dtype == expected.dtype and np.array_equal(result, expected)
    assert np.array_equal(MeanAggregator()(selection), MeanAggregator()(dense))
    assert RowSelection.of(selection) is selection
    assert np.shares_memory(RowSelection.of(dense).densified(), dense)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("where", ["patched_winner", "base_row"])
def test_streamed_median_clamps_non_finite_votes_like_the_dense_clamp(where, n, dtype):
    """NaN -> 0 and +-inf -> +-1e30, block by block in the lane buffer: the
    bits of clamping the whole matrix first, which no longer happens."""
    d = LANE_BLOCK + 5  # the first block is clamped, the tail block is clean
    rng = np.random.default_rng(n)
    base = rng.standard_normal((n, d)).astype(dtype)
    files = np.array([n - 1, 1], dtype=np.int64)
    rows = rng.standard_normal((2, d)).astype(dtype)
    target = rows[1] if where == "patched_winner" else base[2]
    target[[0, 7, 8, LANE_BLOCK - 1]] = [np.nan, np.inf, -np.inf, np.nan]
    target[9:12] = np.inf  # the median itself is non-finite at n = 4
    base[0, 9:12] = np.inf
    selection = RowSelection(base, files, rows)
    dense = selection.densified()
    assert not np.isfinite(dense[:, :LANE_BLOCK]).all()
    assert np.isfinite(dense[:, LANE_BLOCK:]).all()

    clamped = np.nan_to_num(dense, nan=0.0, posinf=1e30, neginf=-1e30)
    expected = np.median(clamped, axis=0)
    for votes in (selection, dense):
        result = CoordinateWiseMedian()(votes)
        assert result.dtype == expected.dtype
        assert np.array_equal(result, expected)
        assert np.array_equal(np.signbit(result), np.signbit(expected))
    assert np.isnan(dense).any()  # the caller's rows were not written


#: constructor arguments of the rules that need some; the rest take none
AGGREGATOR_PARAMS = {
    "bulyan": {"num_byzantine": 2},
    "krum": {"num_byzantine": 2},
    "multi_krum": {"num_byzantine": 2},
    "median_of_means": {"num_groups": 3},
    "trimmed_mean": {"trim": 2},
}


@pytest.mark.parametrize("source", ["patched_round", "nan_row"])
@pytest.mark.parametrize("name", available_aggregators())
def test_kernels_only_ever_see_read_only_inputs(name, source, monkeypatch):
    """Whatever reaches a rule's ``_aggregate`` is read-only, so a kernel that
    wrote into its input would raise instead of changing what the next reader
    of the round's honest gradients sees; the caller's bytes never move."""
    if source == "patched_round":
        tensor, honest = attacked_round(RAMANUJAN, np.float64)
        votes, _ = majority_vote_votetensor(tensor)
        assert votes.files.size  # some winners are patched rows
        caller = honest
    else:
        votes = np.random.default_rng(5).standard_normal((RAMANUJAN.num_files, DIM))
        votes[3] = np.nan
        caller = votes
    before = caller.tobytes()
    aggregator = create_aggregator(name, **AGGREGATOR_PARAMS.get(name, {}))
    received = []
    kernel = type(aggregator)._aggregate

    def spy(self, matrix):
        received.append(matrix)
        return kernel(self, matrix)

    monkeypatch.setattr(type(aggregator), "_aggregate", spy)
    aggregator(votes)
    assert received
    for matrix in received:
        arrays = (matrix.base, matrix.rows) if isinstance(matrix, RowSelection) else (matrix,)
        assert not any(array.flags.writeable for array in arrays)
    assert caller.tobytes() == before
