"""The vote's winners as a ``RowSelection``: same rows, same bytes, no ``(f, d)`` copy.

Every pipeline's ``aggregate_tensor(...).winners`` is the honest base plus the few
rows that are not base rows.  The oracle for what those rows must be is the
single-file reference vote applied to each file's materialized (arrived)
copies — the dense winners matrix the vote returned before it stopped
copying — and every comparison here is bit for bit.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.majority import (
    _winning_slots,
    majority_vote_votetensor,
    override_content_ids,
)
from repro.aggregation.mean import MeanAggregator
from repro.aggregation.median import CoordinateWiseMedian, coordinate_median
from repro.aggregation.registry import available_aggregators, create_aggregator
from repro.assignment.ramanujan import RamanujanAssignment
from repro.core.pipelines import AggregationPipeline
from repro.core.vote_tensor import RowSelection, VoteTensor
from repro.exceptions import ConfigurationError
from repro.utils.arrays import LANE_BLOCK
from repro.utils.digest import array_digest

from cow_helpers import tensor_of
from reference_vote import reference_vote

RAMANUJAN = RamanujanAssignment(m=5, s=5).assignment  # K = f = 25, r = 5
DIM = 37
DTYPES = (np.float32, np.float64)


def attacked_round(assignment, dtype, seed=0):
    """A lazy round with every kind of slot: a colluding payload that
    out-votes the base on some files and loses on others, per-slot noise,
    and an override equal to its base.  File 0's four Byzantine copies end
    up as four different noise rows, so no class reaches r' = 3: it
    abstains."""
    rng = np.random.default_rng(seed)
    honest = rng.standard_normal((assignment.num_files, DIM)).astype(dtype)
    tensor = VoteTensor.from_honest(assignment, honest)
    workers = tensor.workers
    # whoever holds file 0 and file 7: file 7 (at least) flips
    majority = assignment.replication // 2 + 1
    byzantine = set(workers[0, :majority].tolist()) | set(workers[7, -majority:].tolist())
    tensor.mark_byzantine(byzantine)
    files, slots = np.nonzero(tensor.byzantine_mask)
    tensor.write_slots(files, slots, np.full(DIM, -3.0, dtype=dtype))
    tensor.write_slots(files[:4], slots[:4], rng.standard_normal((4, DIM)).astype(dtype))
    tensor.write_slots([2], [0], honest[2])
    return tensor, honest


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
    assert selection.row_ids.shape == selection.files.shape  # two index vectors, no rows
    for array in (selection.base, selection.store):
        with pytest.raises(ValueError):
            array[...] = 0.0


#: the bit pattern of the default quiet NaN, per working dtype
QUIET_NAN = {np.float32: (np.uint32, 0x7FC0_0000), np.float64: (np.uint64, 0x7FF8_0000_0000_0000)}


def _nan(dtype, payload):
    """A quiet NaN carrying ``payload`` in its mantissa: equal payloads give
    equal bits, different payloads different bits."""
    unsigned, quiet = QUIET_NAN[dtype]
    return np.array([quiet | payload], dtype=unsigned).view(dtype)[0]


#: (five copies of file 0, which of them arrived, the winner's copy or None
#: when the file abstains); r = 5, so a winner needs r' = 3 equal arrived copies
REVOTE_CASES = {
    "one-arrived": ("ABCDE", "..X..", None),
    "arrived-unanimous-below-threshold": ("ABBCD", ".XX..", None),
    "tie-abstains": ("ABCCB", ".XXXX", None),
    "missing-slot-0": ("ABBCB", ".XXXX", 1),
    "signed-zeros": ("PMMPM", ".XXXX", 1),
    "nan-equal-bits": ("ANNBN", ".XXXX", 1),
    "nan-unequal-bits": ("ANONB", ".XXXX", None),
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", sorted(REVOTE_CASES))
def test_incomplete_file_votes_over_its_arrived_copies(case, dtype):
    """An incomplete file's winner is read off the round's content ids over
    its arrived slots: it is decided iff r' of them hold equal bytes, and
    then it equals the reference vote over the arrived copies, bit for bit,
    beside a complete file and a file nobody returned."""
    copies, arrival, winner = REVOTE_CASES[case]
    rng = np.random.default_rng(7)
    payloads = {c: rng.standard_normal(4).astype(dtype) for c in "ABCDE"}
    payloads.update(
        P=np.zeros(4, dtype=dtype),  # +0.0
        M=np.full(4, -0.0, dtype=dtype),
        N=np.full(4, _nan(dtype, 1), dtype=dtype),
        O=np.full(4, _nan(dtype, 2), dtype=dtype),
    )
    cube = np.stack([
        np.stack([payloads[c] for c in copies]),
        np.stack([payloads["B"]] * 5),  # complete and unanimous
        np.stack([payloads[c] for c in "ABCDE"]),  # nothing arrived
    ])
    arrived = np.array([[c == "X" for c in arrival], [True] * 5, [False] * 5])
    expected, counts = reference_vote(cube, arrived)
    if winner is None:
        assert counts[0] == 0 and expected.tobytes() == cube[1, 0].tobytes()
    else:
        assert counts[0] == 3
        assert expected[0].tobytes() == cube[0, winner].tobytes()

    selection, got, _, _ = majority_vote_votetensor(tensor_of(cube), arrived=arrived)
    assert selection.densified().tobytes() == expected.tobytes()
    assert got.tolist() == counts.tolist()


def test_honest_round_copies_no_row():
    honest = np.random.default_rng(2).standard_normal((25, DIM))
    tensor = VoteTensor.from_honest(RAMANUJAN, honest)
    selection = AggregationPipeline(RAMANUJAN).aggregate_tensor(tensor).winners
    assert selection.files.size == 0 and selection.store.shape == (0, DIM)
    assert np.shares_memory(selection.base, honest)
    dense = selection.densified()
    assert np.shares_memory(dense, honest) and not dense.flags.writeable
    assert_stands_for(selection, honest)


def test_select_slots_wants_one_slot_per_file():
    tensor = VoteTensor.from_honest(RAMANUJAN, np.zeros((25, 3)))
    with pytest.raises(ConfigurationError):
        tensor.select_slots(np.zeros(24, dtype=np.int64))
    with pytest.raises(ConfigurationError):
        tensor.select_slots(np.zeros(2, dtype=np.int64), [0, 4, 9])
    base, one = np.zeros((4, 3)), np.array([1])
    with pytest.raises(ConfigurationError):
        RowSelection(base, one, np.array([0]), np.zeros((1, 2)))
    with pytest.raises(ConfigurationError):
        RowSelection(base, one, np.array([0]), np.zeros((1, 3), dtype=np.float32))
    with pytest.raises(ConfigurationError):
        RowSelection(base, one, np.array([1]), np.zeros((1, 3)))  # past the store
    with pytest.raises(ConfigurationError):
        RowSelection(base, one, np.array([-1]), np.zeros((1, 3)))  # no zero-row id
    with pytest.raises(ConfigurationError):
        RowSelection(base, one, np.array([0, 0]), np.zeros((1, 3)))  # ids != files
    with pytest.raises(ConfigurationError):
        RowSelection(base, one, np.array([0]))  # no store to read row 0 from
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
    store = rng.standard_normal((n + 2, 2, d)).astype(dtype)
    base = store[:, 0, :] if strided else np.ascontiguousarray(store[:, 0, :])
    # the selection reads n of the base's rows (in a drawn order), or all of them
    kept = None
    if data.draw(st.booleans()):
        kept = np.array(data.draw(st.permutations(range(n + 2)))[:n], dtype=np.int64)
    else:
        base = base[:n]
    files = np.array(
        data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)), dtype=np.int64
    )
    rows = rng.standard_normal((files.size, d)).astype(dtype)
    dense = (base if kept is None else base[kept]).copy()
    dense[files] = rows
    selection = RowSelection(base, files, np.arange(files.size), rows, kept)

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
    # any of its rows, in any order, select from the same base and store
    taken = np.array(
        data.draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1, max_size=n)),
        dtype=np.int64,
    )
    part = selection.take(taken)
    assert_stands_for(part, dense[taken])
    assert np.shares_memory(part.base, base) and part.store.base is selection.store.base


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
    selection = RowSelection(base, files, np.arange(2), rows)
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
        votes, _, _, _ = majority_vote_votetensor(tensor)
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
        arrays = (matrix.base, matrix.store) if isinstance(matrix, RowSelection) else (matrix,)
        assert not any(array.flags.writeable for array in arrays)
    assert caller.tobytes() == before


# --------------------------------------------------------------------------- #
# The winners reference the payload store
# --------------------------------------------------------------------------- #
#: the nine workers whose ALIE payload out-votes RAMANUJAN's base on nine files
#: (the worst-case set at q = 9)
WORST_NINE = (0, 1, 2, 5, 6, 12, 13, 15, 21)


def written_round(kind, dtype, dim=DIM):
    """``(tensor, honest, arrived)``: a round whose winners read the store.

    ``shared``: one colluding payload in every Byzantine slot, winning nine
    files; ``per-slot``: each Byzantine slot its own row (reversed gradients,
    so a file's Byzantine copies agree and still out-vote its base);
    ``zero``: a shared zero row from zero-mode corruption plus two files
    nobody returned, which abstain."""
    rng = np.random.default_rng(11)
    honest = rng.standard_normal((RAMANUJAN.num_files, dim)).astype(dtype)
    tensor = VoteTensor.from_honest(RAMANUJAN, honest)
    tensor.mark_byzantine(WORST_NINE)
    files, slots = np.nonzero(tensor.byzantine_mask)
    arrived = None
    if kind == "shared":
        tensor.write_slots(files, slots, np.full(dim, -2.5, dtype=dtype))
    elif kind == "per-slot":
        tensor.write_slots(files, slots, -honest[files])
    else:
        tensor.zero_slots(files, slots)
        arrived = np.ones(tensor.workers.shape, dtype=bool)
        arrived[[3, 17]] = False
    return tensor, honest, arrived


def copying_winners(tensor, slots, counts):
    """The winners as the vote built them while it copied: the chosen slot
    of every file with an arrived copy, gathered through ``read_slots``."""
    files = np.nonzero(counts)[0]
    return np.array(tensor.read_slots(files, slots[files]))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kind", ["shared", "per-slot", "zero"])
def test_winners_reference_the_store_and_read_as_the_copying_vote(kind, dtype):
    tensor, honest, arrived = written_round(kind, dtype)
    winners, counts, ids, refs = majority_vote_votetensor(tensor, arrived=arrived)
    slots, _ = _winning_slots(override_content_ids(tensor), arrived)
    dense = copying_winners(tensor, slots, counts)

    if kind == "zero":
        assert refs[:, 0].tolist() == sorted(set(range(25)) - {3, 17})  # 3, 17 abstain
        # the nine out-voted files, less file 17, which abstains
        assert refs[winners.files, 0].tolist() == [0, 1, 5, 7, 13, 14, 16, 20]
    else:
        assert winners.files.size == 9  # the nine out-voted files
    if kind == "shared":
        assert np.unique(winners.row_ids).size == 1  # one row, referenced nine times
    assert np.shares_memory(winners.store, tensor.override_table()[3])
    assert np.shares_memory(winners.base, honest)  # abstaining files gather nothing
    assert not winners.store.flags.writeable and not winners.base.flags.writeable
    assert_stands_for(winners, dense)
    for width in (1, 7, LANE_BLOCK):
        for lo in range(0, DIM, width):
            hi = min(DIM, lo + width)
            lanes = np.full((hi - lo, winners.shape[0]), np.nan, dtype=dtype)
            winners.lanes(lo, hi, lanes)
            assert lanes.tobytes() == np.ascontiguousarray(dense[:, lo:hi].T).tobytes()
    median = coordinate_median(winners)
    assert median.tobytes() == coordinate_median(dense).tobytes()
    assert median.tobytes() == np.median(dense, axis=0).tobytes()
    assert array_digest(winners, refs) == array_digest(RowSelection(dense), refs)


def test_vote_winners_hold_no_payload_row():
    """What the vote returns and keeps holds index vectors, never a payload
    row: with one colluding payload winning nine files it measured 4.1 KB,
    against 1.44 MB — nine ``(d,)`` rows — while the winners copied it once
    per file."""
    dim = 20_000
    tensor, _, _ = written_round("shared", np.float64, dim)
    majority_vote_votetensor(tensor)  # builds the vote's cached (d,) hash weights
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        vote = majority_vote_votetensor(tensor)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert (vote.winners.row_ids >= 0).sum() == 9
    assert held < dim * 8, held
