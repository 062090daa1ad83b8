"""Tests for Krum, Multi-Krum and Bulyan."""

import numpy as np
import pytest

import repro.aggregation.bulyan as bulyan_module
from repro.aggregation.bulyan import BulyanAggregator, bulyan_selection
from repro.aggregation.krum import (
    KrumAggregator,
    MultiKrumAggregator,
    krum_scores,
    krum_scores_from_distances,
)
from repro.aggregation.trimmed_mean import TrimmedMeanAggregator
from repro.core.vote_tensor import RowSelection
from repro.exceptions import AggregationError
from repro.utils.arrays import pairwise_squared_distances


def clustered_votes(num_honest=10, num_byzantine=2, dim=6, offset=50.0, seed=0):
    rng = np.random.default_rng(seed)
    honest = rng.standard_normal((num_honest, dim)) * 0.1 + 1.0
    byzantine = rng.standard_normal((num_byzantine, dim)) * 0.1 + offset
    return np.vstack([honest, byzantine]), honest


def test_krum_scores_shape_and_requirement():
    votes, _ = clustered_votes()
    scores = krum_scores(votes, num_byzantine=2)
    assert scores.shape == (12,)
    with pytest.raises(AggregationError):
        krum_scores(votes[:5], num_byzantine=2)  # needs 2q+3 = 7 votes
    with pytest.raises(AggregationError):
        krum_scores(votes, num_byzantine=-1)


def test_krum_scores_is_the_distance_scoring_of_the_distance_matrix():
    votes, _ = clustered_votes()
    distances = pairwise_squared_distances(votes)
    assert np.array_equal(
        krum_scores(votes, num_byzantine=2),
        krum_scores_from_distances(distances, num_byzantine=2),
    )
    with pytest.raises(AggregationError, match=r"2q\+3=7 votes, got 5"):
        krum_scores_from_distances(distances[:5, :5], num_byzantine=2)


def test_krum_selects_an_honest_vote():
    votes, honest = clustered_votes()
    result = KrumAggregator(num_byzantine=2)(votes)
    distances_to_honest = np.linalg.norm(honest - result, axis=1)
    assert distances_to_honest.min() < 1e-9  # Krum returns one of the inputs
    assert np.linalg.norm(result - honest.mean(axis=0)) < 1.0


def test_krum_minimum_votes():
    assert KrumAggregator(num_byzantine=3).minimum_votes() == 9
    assert KrumAggregator(num_byzantine=3).minimum_votes(1) == 5
    with pytest.raises(AggregationError):
        KrumAggregator(num_byzantine=-1)


def test_multi_krum_averages_honest_votes():
    votes, honest = clustered_votes()
    result = MultiKrumAggregator(num_byzantine=2)(votes)
    assert np.linalg.norm(result - honest.mean(axis=0)) < 0.5


def test_multi_krum_explicit_k():
    votes, honest = clustered_votes()
    result = MultiKrumAggregator(num_byzantine=2, multi_k=3)(votes)
    assert np.linalg.norm(result - honest.mean(axis=0)) < 0.5
    with pytest.raises(AggregationError):
        MultiKrumAggregator(num_byzantine=1, multi_k=0)


def test_multi_krum_insufficient_votes():
    votes, _ = clustered_votes(num_honest=4, num_byzantine=1)
    with pytest.raises(AggregationError):
        MultiKrumAggregator(num_byzantine=3)(votes)


def test_bulyan_requires_4q_plus_3():
    votes, _ = clustered_votes(num_honest=8, num_byzantine=2)  # 10 votes
    with pytest.raises(AggregationError):
        BulyanAggregator(num_byzantine=2)(votes)  # needs 11
    assert BulyanAggregator(num_byzantine=2).minimum_votes() == 11
    with pytest.raises(AggregationError):
        BulyanAggregator(num_byzantine=-1)


SHORT_RULES = [
    TrimmedMeanAggregator(trim=2),
    KrumAggregator(num_byzantine=2),
    MultiKrumAggregator(num_byzantine=2),
    BulyanAggregator(num_byzantine=2),
]


@pytest.mark.parametrize("form", ["dense", "selection"])
@pytest.mark.parametrize("aggregator", SHORT_RULES, ids=lambda a: a.aggregator_name)
def test_a_short_vote_matrix_is_refused_by_name(aggregator, form):
    """One row short of ``minimum_votes()`` is refused before the rule runs,
    with the rule, the count it got and the count it needs; as a selection
    too, whose ``rows`` leave out three abstained files and whose first row
    is a stored payload."""
    needed = aggregator.minimum_votes()
    rng = np.random.default_rng(needed)

    def votes(n):
        if form == "dense":
            return rng.standard_normal((n, 6))
        base = rng.standard_normal((n + 3, 6))
        kept = np.setdiff1d(np.arange(n + 3), [1, n, n + 1])
        return RowSelection(base, [0], [0], rng.standard_normal((1, 6)), rows=kept)

    name = aggregator.aggregator_name
    message = rf"^{name} as configured needs at least {needed} votes, got {needed - 1}$"
    with pytest.raises(AggregationError, match=message):
        aggregator(votes(needed - 1))
    assert aggregator(votes(needed)).shape == (6,)


def test_bulyan_filters_byzantine_cluster():
    votes, honest = clustered_votes(num_honest=13, num_byzantine=2)
    result = BulyanAggregator(num_byzantine=2)(votes)
    assert np.linalg.norm(result - honest.mean(axis=0)) < 0.5


def test_bulyan_defends_single_coordinate_attack():
    """The 'hidden vulnerability' scenario: one coordinate blown up slightly."""
    rng = np.random.default_rng(1)
    honest = rng.standard_normal((13, 8)) * 0.05
    byzantine = rng.standard_normal((2, 8)) * 0.05
    byzantine[:, 3] += 5.0  # large change in one coordinate only
    votes = np.vstack([honest, byzantine])
    result = BulyanAggregator(num_byzantine=2)(votes)
    assert abs(result[3] - honest[:, 3].mean()) < 0.5


def test_krum_identical_votes():
    votes = np.ones((9, 4))
    assert np.allclose(KrumAggregator(num_byzantine=2)(votes), 1.0)
    assert np.allclose(BulyanAggregator(num_byzantine=1)(votes[:7]), 1.0)


# -- the rewritten kernel against the one it replaced ---------------------------


def _clamped(matrix):
    """What ``Aggregator.__call__`` hands ``_aggregate`` for non-finite input."""
    return np.nan_to_num(matrix, nan=0.0, posinf=1e30, neginf=-1e30)


def _reference_bulyan(matrix, q, block_size=None):
    """Bulyan as it stood before the distances were shared and the trimming
    moved to contiguous lanes, kept verbatim: theta ``krum_scores`` calls on
    the gathered sub-matrix, then ``np.median`` / ``argsort`` /
    ``take_along_axis`` down axis 0 and one mean.  Returns the aggregate and
    the selected row indices."""
    n = matrix.shape[0]
    theta = n - 2 * q
    remaining = list(range(n))
    selected = []
    while len(selected) < theta:
        sub = matrix[remaining]
        effective_q = min(q, max((len(remaining) - 3) // 2, 0))
        scores = krum_scores(sub, effective_q, block_size=block_size)
        winner_local = int(np.argmin(scores))
        winner = remaining.pop(winner_local)
        selected.append(winner)
    return _reference_trim(matrix[selected], q), selected


def _reference_trim(sel, q):
    """The reference's trim of its selected rows, in the order they were picked."""
    beta = sel.shape[0] - 2 * q
    median = np.median(sel, axis=0)
    deviation = np.abs(sel - median)
    order = np.argsort(deviation, axis=0)[:beta]
    closest = np.take_along_axis(sel, order, axis=0)
    return closest.mean(axis=0)


REFERENCE_DIMS = [1, 2, 5, 63, 130, 5000]
REFERENCE_BLOCKS = [None, 1, 7, 64]


def _reference_case(rng, q, n, d, dtype, kind):
    """One input family per ``kind``; every family has a per-row scale spread
    of 1e-3..1e3."""
    matrix = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    rows = rng.choice(n, size=int(rng.integers(1, q + 1)), replace=False)
    if kind == "colluding":
        matrix[rows] = matrix[rows[0]]
    elif kind == "entries":
        for row in rows:
            matrix[row, rng.integers(0, d)] = rng.choice([np.nan, np.inf, -np.inf])
    elif kind == "ties":
        # quantised: equal deviations on both sides of a median, equal scores
        matrix = np.round(matrix, 1)
    elif kind == "view":
        wide = np.zeros((n, 2 * d + 1))
        wide[:, ::2][:, :d] = matrix
        return wide.astype(dtype)[:, ::2][:, :d]
    return matrix.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_bulyan_is_bit_identical_to_the_kernel_it_replaced(q, dtype):
    """``np.array_equal``, not ``allclose``: every block width gives the bits
    of the monolithic reference, and the selection is the reference's at the
    same width.

    The selection half is the evidence that sharing one distance matrix is
    safe: its ``remaining x remaining`` sub-block need not equal the
    distances of the gathered rows to the ulp, and the steps only rank.
    What the ulp *can* decide is which of two bit-identical rows (colluders,
    quantised low-d rows) is picked first — BLAS does not promise them equal
    Gram entries — so the selected *rows* are compared always, and the index
    list itself wherever the input rows are pairwise distinct.
    """
    rng = np.random.default_rng(1000 * q + np.dtype(dtype).itemsize)
    kinds = ["plain", "colluding", "entries", "ties", "view"]
    for n in range(4 * q + 3, 4 * q + 13):
        for d in REFERENCE_DIMS:
            kind = kinds[int(rng.integers(len(kinds)))]
            matrix = _reference_case(rng, q, n, d, dtype, kind)
            if kind == "view":
                assert not matrix.flags.c_contiguous
            clamped = _clamped(matrix)
            distinct = len(np.unique(clamped, axis=0)) == n
            expected, _ = _reference_bulyan(clamped, q)
            # width 1 on a 5000-wide matrix is 5000 blocks per Krum call
            for block_size in REFERENCE_BLOCKS if d < 5000 else [None, 64]:
                where = (kind, n, d, block_size)
                result = BulyanAggregator(q, block_size=block_size)(matrix)
                assert result.dtype == expected.dtype, where
                assert np.array_equal(result, expected), where
                _, expected_selection = _reference_bulyan(clamped, q, block_size)
                selection = bulyan_selection(clamped, q, block_size=block_size)
                assert np.array_equal(
                    clamped[selection], clamped[expected_selection]
                ), where
                if distinct:
                    assert selection == expected_selection, where


#: dims around the default lane block: a width-1 tail folded into the block
#: before it (513, 1025) and one that is not (514)
SELECTION_DIMS = [1, 2, 5, 63, 513, 514, 1025, 5000]


def _patched_selection(rng, q, n, d, dtype, abstained=False):
    """A vote's winners as Bulyan receives them: a base plus patched files.

    Up to ``q`` files share store row 0 (a colluding payload), one file
    reads store row 2, a stored zero row, and one reads store row 1, which
    holds NaN and +-inf.  With ``abstained``, at least two files share row 0
    and the base has one more row, left out through ``rows`` (a file with no
    accepted copy has no winner row); the others are read in a shuffled
    order.
    """
    base = _reference_case(rng, q, n + abstained, d, dtype, "plain")
    store = (rng.standard_normal((2, d)) * 10.0 ** rng.integers(-3, 4, size=(2, 1)))
    store[1, rng.choice(d, size=min(d, 3), replace=False)] = [np.nan, np.inf, -np.inf][
        : min(d, 3)
    ]
    sharing = int(rng.integers(1 + abstained, q + 1 + abstained))
    files = rng.choice(n, size=sharing + 2, replace=False)
    row_ids = np.zeros(files.size, dtype=np.int64)
    row_ids[-2:] = [2, 1]
    store = np.vstack([store, np.zeros(d)])
    rows = rng.permutation(n + 1)[:n] if abstained else None
    return RowSelection(base, files, row_ids, store.astype(dtype), rows)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("q", [1, 2, 3, 5])
def test_bulyan_streams_a_selection_to_the_reference_bits(q, dtype):
    """What a round hands Bulyan is the vote's ``RowSelection``, never a dense
    matrix: both passes read it through clamped lanes, and the trim reads
    only the theta rows it selected (``RowSelection.take``).  Every width
    gives the bits of the reference on the clamped dense matrix, and selects
    its rows.

    The lane Gram is not the reference's GEMM at any width, so two scores a
    few ulps apart can be picked in either order (float32 rows of scale
    1e-3..1e3 do that here); the selected rows are compared as a set.

    The second pass reads a selection with ``rows`` set (a file abstained)
    and a stored row shared by at least two files.  Two bit-identical rows
    are where the reference comparison stops holding, for the dense kernel
    as well: which twin is picked first is rounding noise, and a later
    exact score tie is broken by position.  At q = 1, float64, n = 12,
    d = 1025 the default width picks both twins where the reference picks
    one twin and another row.  So that pass compares the aggregate with the
    kernel on the clamped dense matrix, and with the reference trim of the
    aggregator's own picks, bit for bit."""
    rng = np.random.default_rng(2000 * q + np.dtype(dtype).itemsize)
    for abstained in (False, True):
        for n in (4 * q + 3, 4 * q + 8):
            for d in SELECTION_DIMS:
                selection = _patched_selection(rng, q, n, d, dtype, abstained)
                clamped = _clamped(selection.densified())
                expected, _ = _reference_bulyan(clamped, q)
                for block_size in REFERENCE_BLOCKS if d < 5000 else [None, 64]:
                    where = (n, d, abstained, block_size)
                    aggregator = BulyanAggregator(q, block_size=block_size)
                    result = aggregator(selection)
                    assert result.dtype == expected.dtype, where
                    if abstained:
                        assert np.array_equal(result, aggregator(clamped)), where
                        width = block_size or bulyan_module._LANE_BLOCK
                        chosen = bulyan_selection(selection, q, block_size=width)
                        trimmed = _reference_trim(clamped[chosen], q)
                        assert np.array_equal(result, trimmed), where
                        continue
                    assert np.array_equal(result, expected), where
                    _, expected_selection = _reference_bulyan(clamped, q, block_size)
                    chosen = bulyan_selection(selection, q, block_size=block_size)
                    assert sorted(row.tobytes() for row in clamped[chosen]) == sorted(
                        row.tobytes() for row in clamped[expected_selection]
                    ), where


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_bulyan_q0_is_the_mean(n):
    """q = 0 selects every row and trims nothing; it used to die on every
    input when the selection loop ran Krum down to two remaining rows."""
    votes = np.random.default_rng(n).standard_normal((n, 9))
    aggregator = BulyanAggregator(num_byzantine=0)
    assert aggregator.minimum_votes() == 1
    assert np.allclose(aggregator(votes), votes.mean(axis=0), rtol=1e-12, atol=1e-15)
    assert sorted(bulyan_selection(votes, 0)) == list(range(n))


@pytest.mark.parametrize("q", [1, 2, 3, 5])
def test_bulyan_scores_every_selection_step_when_q_is_positive(q, monkeypatch):
    """The index-order fallback below three remaining rows is q = 0 only: at
    q >= 1 all theta picks come out of a Krum scoring, the last one over
    2q + 1 >= 3 rows."""
    sizes = []

    def recording(distances, num_byzantine):
        sizes.append(distances.shape[0])
        return krum_scores_from_distances(distances, num_byzantine)

    monkeypatch.setattr(bulyan_module, "krum_scores_from_distances", recording)
    for n in (4 * q + 3, 4 * q + 8):
        sizes.clear()
        votes = np.random.default_rng(n).standard_normal((n, 6))
        assert len(bulyan_selection(votes, q)) == n - 2 * q
        assert sizes == list(range(n, 2 * q, -1))


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_non_finite_rows_are_never_selected_while_they_number_at_most_q(dtype):
    """A +-inf row is clamped to +-1e30, whose square overflows float32: its
    distances are inf/NaN, which must rank last — silently (tier-1 turns a
    RuntimeWarning from the aggregation package into an error) and at every
    step, now that all theta steps read the same distance matrix."""
    rng = np.random.default_rng(7)
    q, n, d = 3, 17, 40
    for bad_count in range(1, q + 1):
        votes = rng.standard_normal((n, d)).astype(dtype)
        bad = rng.choice(n, size=bad_count, replace=False)
        votes[bad] = np.where(rng.random((bad_count, 1)) < 0.5, np.inf, -np.inf)
        votes[bad[0], 0] = np.nan
        for block_size in (None, 16):
            selection = bulyan_selection(_clamped(votes), q, block_size=block_size)
            assert not set(selection) & set(bad.tolist())
            honest = np.delete(votes, bad, axis=0)
            for aggregator in (
                BulyanAggregator(q, block_size=block_size),
                KrumAggregator(q, block_size=block_size),
                MultiKrumAggregator(q, block_size=block_size),
            ):
                result = aggregator(votes)
                assert np.all(np.isfinite(result))
                assert np.all(result >= honest.min(axis=0))
                assert np.all(result <= honest.max(axis=0))
