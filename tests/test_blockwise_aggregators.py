"""Blockwise (coordinate-sharded) kernels are bit-identical to monolithic.

The vote streams coordinate blocks of ``d`` through a fixed workspace at
the pipeline's ``block_size``, and Bulyan at its own lane block.  The
streaming reorders *which columns* a stage sees at once, never the values a
selection or an accumulation consumes — boolean AND accumulation, uint64
modular hash sums and per-column selections (sort / partition / argsort)
are width-independent, and every float mean runs over an operand the width
cannot reorder — so the results must match the monolithic kernels bit for
bit, not approximately.  The distance kernel's block partial sums may move
the last ulp; the Krum scores it feeds must still rank alike.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.aggregation.bulyan as bulyan_module
from repro.aggregation.bulyan import BulyanAggregator
from repro.aggregation.krum import krum_scores, krum_scores_from_distances
from repro.aggregation.majority import majority_vote_votetensor
from repro.assignment.mols import MOLSAssignment
from repro.core.vote_tensor import VoteTensor
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


class TestBlockwiseBitIdentity:
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    @pytest.mark.parametrize("dim", DIMS)
    def test_bulyan_lane_block_matches_its_default(self, block_size, dim, monkeypatch):
        rng = np.random.default_rng(dim * 1009 + block_size % 997)
        for trial in range(5):
            matrix = attacked_matrix(rng, d=dim)
            aggregator = BulyanAggregator(num_byzantine=max(0, (matrix.shape[0] - 3) // 4))
            default = aggregator(matrix.copy())
            with monkeypatch.context() as patch:
                patch.setattr(bulyan_module, "_LANE_BLOCK", block_size)
                assert np.array_equal(aggregator(matrix.copy()), default), trial

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_pairwise_distances_rank_equivalent(self, block_size):
        """Blockwise distance sums may differ in the last ulp, but Krum's
        selection (the only consumer) must not change — checked directly on
        the score ordering."""
        rng = np.random.default_rng(3)
        matrix = attacked_matrix(rng, n=13, d=97)
        mono = krum_scores(matrix, num_byzantine=2)
        d_blk = pairwise_squared_distances(matrix, block_size=block_size)
        blk = krum_scores_from_distances(d_blk, num_byzantine=2)
        assert np.array_equal(np.argsort(mono, kind="stable"),
                              np.argsort(blk, kind="stable"))
        assert np.allclose(pairwise_squared_distances(matrix), d_blk, rtol=1e-12)

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
