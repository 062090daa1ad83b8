"""Blockwise (coordinate-sharded) kernels are bit-identical to monolithic.

Every aggregator that gained a ``block_size`` mode streams coordinate blocks
of ``d`` through a fixed workspace.  The streaming reorders *which columns*
a stage sees at once, never the values a selection or an accumulation
consumes — boolean AND accumulation, uint64 modular hash sums and per-column
selections (sort / partition / argsort) are width-independent, and every
float mean runs once over the same contiguous full-width operand — so the
results must match the monolithic kernels bit for bit, not approximately.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregation.bulyan import BulyanAggregator
from repro.aggregation.krum import KrumAggregator, MultiKrumAggregator, krum_scores
from repro.aggregation.majority import majority_vote_votetensor
from repro.aggregation.median_of_means import MedianOfMeansAggregator
from repro.aggregation.trimmed_mean import TrimmedMeanAggregator
from repro.assignment.mols import MOLSAssignment
from repro.core.vote_tensor import VoteTensor
from repro.exceptions import AggregationError
from repro.utils.arrays import pairwise_squared_distances

from cow_helpers import cube_of, tensor_of

BLOCK_SIZES = [1, 7, 64, 10**6]
DIMS = [1, 5, 63, 130]


def attacked_matrix(rng, n=11, d=64):
    """An (n, d) vote matrix with wild scale spread and adversarial rows."""
    matrix = rng.standard_normal((n, d)) * 10.0 ** float(rng.integers(-3, 4))
    q = int(rng.integers(0, n // 3 + 1))
    for row in rng.choice(n, size=q, replace=False):
        matrix[row] = rng.standard_normal(d) * 1e4
    return matrix


def make_aggregators(matrix, block_size):
    n = matrix.shape[0]
    q = max(0, (n - 3) // 4)
    return [
        TrimmedMeanAggregator(trim=2, block_size=block_size),
        TrimmedMeanAggregator(trim=0, block_size=block_size),
        MedianOfMeansAggregator(num_groups=3, block_size=block_size),
        KrumAggregator(num_byzantine=q, block_size=block_size),
        MultiKrumAggregator(num_byzantine=q, block_size=block_size),
        BulyanAggregator(num_byzantine=q, block_size=block_size),
    ]


class TestBlockwiseBitIdentity:
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    @pytest.mark.parametrize("dim", DIMS)
    def test_aggregators_match_monolithic(self, block_size, dim):
        rng = np.random.default_rng(dim * 1009 + block_size % 997)
        for trial in range(5):
            matrix = attacked_matrix(rng, d=dim)
            for blk, mono in zip(
                make_aggregators(matrix, block_size),
                make_aggregators(matrix, None),
            ):
                result_blk = blk(matrix.copy())
                result_mono = mono(matrix.copy())
                assert np.array_equal(result_blk, result_mono), (
                    type(blk).__name__, trial
                )

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_pairwise_distances_rank_equivalent(self, block_size):
        """Blockwise distance sums may differ in the last ulp, but Krum's
        selection (the only consumer) must not change — checked directly on
        the score ordering."""
        rng = np.random.default_rng(3)
        matrix = attacked_matrix(rng, n=13, d=97)
        mono = krum_scores(matrix, num_byzantine=2)
        blk = krum_scores(matrix, num_byzantine=2, block_size=block_size)
        assert np.array_equal(np.argsort(mono, kind="stable"),
                              np.argsort(blk, kind="stable"))
        d_mono = pairwise_squared_distances(matrix)
        d_blk = pairwise_squared_distances(matrix, block_size=block_size)
        assert np.allclose(d_mono, d_blk, rtol=1e-12)

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_majority_vote_tensor_matches(self, block_size):
        rng = np.random.default_rng(11)
        for trial in range(5):
            values = rng.standard_normal((9, 5, 83))
            # replicate an honest payload into most slots, corrupt a few
            values[:] = values[:, :1, :]
            for i, k in zip(rng.integers(0, 9, 6), rng.integers(0, 5, 6)):
                values[i, k] = rng.standard_normal(83)
            tensor = tensor_of(values)
            mono_w, mono_c, _, _ = majority_vote_votetensor(tensor)
            blk_w, blk_c, _, _ = majority_vote_votetensor(tensor, block_size=block_size)
            assert np.array_equal(blk_w.densified(), mono_w.densified())
            assert np.array_equal(blk_c, mono_c)

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    @pytest.mark.parametrize("rebuilt", [False, True], ids=["attacked", "rebuilt"])
    def test_majority_vote_votetensor_matches(self, block_size, rebuilt):
        assignment = MOLSAssignment(load=5, replication=3).assignment
        rng = np.random.default_rng(23)
        honest = rng.standard_normal((assignment.num_files, 70))
        tensor = VoteTensor.from_honest(assignment, honest)
        for w in (0, 3, 7, 12):
            payload = rng.standard_normal(70) * 100.0
            tensor.write_slots(*np.nonzero(tensor.workers == w), payload)
        if rebuilt:
            tensor = tensor_of(cube_of(tensor), assignment)
        mono_w, mono_c, _, _ = majority_vote_votetensor(tensor)
        mono_w = mono_w.densified()
        blk_w, blk_c, _, _ = majority_vote_votetensor(tensor, block_size=block_size)
        blk_w = blk_w.densified()
        assert np.array_equal(blk_w, mono_w)
        assert np.array_equal(blk_c, mono_c)


class TestBlockSizeValidation:
    @pytest.mark.parametrize("block_size", [0, -1])
    def test_rejects_non_positive(self, block_size):
        with pytest.raises(AggregationError):
            TrimmedMeanAggregator(trim=1, block_size=block_size)
        with pytest.raises(AggregationError):
            KrumAggregator(num_byzantine=1, block_size=block_size)

    def test_block_larger_than_dim_is_monolithic(self):
        rng = np.random.default_rng(5)
        matrix = attacked_matrix(rng, d=16)
        agg = TrimmedMeanAggregator(trim=2, block_size=10**9)
        assert np.array_equal(agg(matrix), TrimmedMeanAggregator(trim=2)(matrix))
