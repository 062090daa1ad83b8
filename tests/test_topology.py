"""Hierarchical two-level aggregation: topology, bit-identity, composition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregation.majority import _reference_exact_majority, majority_vote_votetensor
from repro.aggregation.median import CoordinateWiseMedian
from repro.assignment.frc import FRCAssignment
from repro.assignment.mols import MOLSAssignment
from repro.assignment.ramanujan import RamanujanAssignment
from repro.cluster.topology import GroupTopology, hierarchical_majority_vote
from repro.core.distortion import distorted_files
from repro.core.pipelines import (
    ByzShieldPipeline,
    DetoxPipeline,
    DracoPipeline,
    VanillaPipeline,
)
from repro.core.vote_tensor import VoteTensor
from repro.exceptions import ConfigurationError

from cow_helpers import cube_of, tensor_of

DIM = 24


def make_round(assignment, byzantine_workers=(), seed=0, rebuilt=False, dim=DIM):
    """One attacked round: replicated honest rows + per-worker payloads.

    Every Byzantine worker writes its own distinct payload into all of its
    slots (workers of the same parity share a payload so that multi-member
    adversarial classes exist and the tie-break logic is exercised).
    ``rebuilt`` stores the same cube with each file's slot 0 as the base.
    """
    rng = np.random.default_rng(seed)
    honest = rng.standard_normal((assignment.num_files, dim))
    tensor = VoteTensor.from_honest(assignment, honest)
    for w in byzantine_workers:
        payload = rng.standard_normal(dim) * 10.0 ** float(rng.integers(-2, 3))
        if w % 2 == 0:
            payload = np.full(dim, float(w % 4) - 7.5)
        tensor.write_slots(*np.nonzero(tensor.workers == w), payload)
    if rebuilt:
        tensor = tensor_of(cube_of(tensor), assignment)
    return tensor, honest


def make_interned_round(assignment, byzantine_workers, rng, dim=200):
    """An attacked round whose overrides share stored rows (a lazy tensor).

    One colluding payload across every Byzantine slot, a second payload
    shared by the first two adversaries (written later, so it orphans part
    of the first), a crash-style ``zero_slots`` over one worker's slots, one
    override equal to its base row and one per-slot noise row.
    """
    honest = rng.standard_normal((assignment.num_files, dim))
    tensor = VoteTensor.from_honest(assignment, honest)
    workers = tensor.workers
    files, slots = np.nonzero(np.isin(workers, byzantine_workers))
    tensor.write_slots(files, slots, rng.standard_normal(dim))
    files2, slots2 = np.nonzero(np.isin(workers, byzantine_workers[:2]))
    tensor.write_slots(files2[::2], slots2[::2], np.full(dim, -0.0))
    crashed, crashed_slots = np.nonzero(workers == byzantine_workers[-1])
    tensor.zero_slots(crashed[:3], crashed_slots[:3])
    tensor.write_slots(files[:1], slots[:1], honest[files[0]])
    tensor.add_to_slots(files[-1:], slots[-1:], rng.standard_normal(dim))
    return tensor


# --------------------------------------------------------------------------- #
# GroupTopology
# --------------------------------------------------------------------------- #
class TestGroupTopology:
    def test_partition_is_contiguous_and_balanced(self):
        topo = GroupTopology(10, 3)
        sizes = [topo.workers_of_group(g).size for g in range(3)]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1
        flat = np.concatenate([topo.workers_of_group(g) for g in range(3)])
        assert np.array_equal(flat, np.arange(10))

    def test_group_of_matches_membership(self):
        topo = GroupTopology(15, 4)
        for g in range(4):
            assert np.array_equal(
                np.nonzero(topo.group_of == g)[0], topo.workers_of_group(g)
            )

    @pytest.mark.parametrize("num_groups", [0, -1, 16])
    def test_rejects_bad_group_count(self, num_groups):
        with pytest.raises(ConfigurationError):
            GroupTopology(15, num_groups)

    def test_rejects_negative_budgets(self):
        with pytest.raises(ConfigurationError):
            GroupTopology(15, 3, q_group=-1)
        with pytest.raises(ConfigurationError):
            GroupTopology(15, 3, q_root=-1)

    def test_rejects_bad_group_index(self):
        with pytest.raises(ConfigurationError):
            GroupTopology(15, 3).workers_of_group(3)

    def test_q_total(self):
        assert GroupTopology(15, 3, q_group=2).q_total == 6

    def test_group_counts_and_admits(self):
        topo = GroupTopology(9, 3, q_group=1)  # groups {0,1,2},{3,4,5},{6,7,8}
        assert np.array_equal(topo.group_counts([0, 4]), [1, 1, 0])
        assert topo.admits([0, 4, 8])
        assert not topo.admits([0, 1])  # two adversaries in group 0
        with pytest.raises(ConfigurationError):
            topo.group_counts([9])

    def test_slot_groups_rejects_out_of_range_workers(self):
        with pytest.raises(ConfigurationError):
            GroupTopology(5, 2).slot_groups(np.array([[0, 5]]))

    def test_equality(self):
        a = GroupTopology(15, 3, q_group=1)
        assert a == GroupTopology(15, 3, q_group=1)
        assert a != GroupTopology(15, 5, q_group=1)
        assert hash(a) == hash(GroupTopology(15, 3, q_group=1))


# --------------------------------------------------------------------------- #
# Bit-identity with the flat kernel
# --------------------------------------------------------------------------- #
SCHEMES = [
    ("mols", lambda: MOLSAssignment(load=5, replication=3).assignment),
    ("ramanujan", lambda: RamanujanAssignment(m=5, s=5).assignment),
    ("frc", lambda: FRCAssignment(num_workers=15, replication=3).assignment),
]


class TestHierarchicalBitIdentity:
    @pytest.mark.parametrize("scheme_name,make", SCHEMES, ids=[s[0] for s in SCHEMES])
    @pytest.mark.parametrize("rebuilt", [False, True], ids=["attacked", "rebuilt"])
    @pytest.mark.parametrize("num_groups", [2, 3, 5])
    def test_matches_flat_vote(self, scheme_name, make, rebuilt, num_groups):
        assignment = make()
        for trial in range(4):
            rng = np.random.default_rng(1000 * num_groups + trial)
            q = int(rng.integers(0, assignment.num_workers // 2 + 1))
            byz = rng.choice(assignment.num_workers, size=q, replace=False)
            tensor, _ = make_round(assignment, byz, seed=trial, rebuilt=rebuilt)
            topo = GroupTopology(assignment.num_workers, num_groups)
            flat = majority_vote_votetensor(tensor)
            hier = hierarchical_majority_vote(tensor, topo)
            assert np.array_equal(hier.winners.densified(), flat.winners.densified())
            assert np.array_equal(hier.counts, flat.counts)
            # the trace's inputs: the same ids and references either way
            assert np.array_equal(hier.content_ids, flat.content_ids)
            assert np.array_equal(hier.winner_refs, flat.winner_refs)

    @pytest.mark.parametrize("scheme_name,make", SCHEMES, ids=[s[0] for s in SCHEMES])
    @pytest.mark.parametrize("block_size", [None, 64])
    @pytest.mark.parametrize("num_groups", [2, 3, 5])
    def test_interned_payloads_match_flat_and_dense(
        self, scheme_name, make, block_size, num_groups
    ):
        """Colluding (shared-row) overrides: flat ≡ hierarchical ≡ reference vote."""
        assignment = make()
        topo = GroupTopology(assignment.num_workers, num_groups)
        for trial in range(4):
            rng = np.random.default_rng(77 * num_groups + trial)
            q = int(rng.integers(2, assignment.num_workers // 2 + 1))
            byz = rng.choice(assignment.num_workers, size=q, replace=False)
            tensor = make_interned_round(assignment, byz, rng)
            row_ids = tensor.override_table()[2]
            # FRC workers hold one file each: too few slots to share a row
            assert scheme_name == "frc" or np.unique(row_ids).size < row_ids.size
            votes = [_reference_exact_majority(copies) for copies in cube_of(tensor)]
            dense_w = np.vstack([w for w, _ in votes])
            dense_c = np.array([c for _, c in votes])
            flat_w, flat_c, _, _ = majority_vote_votetensor(tensor, block_size=block_size)
            flat_w = flat_w.densified()
            hier_w, hier_c, _, _ = hierarchical_majority_vote(tensor, topo, block_size=block_size)
            hier_w = hier_w.densified()
            for winners, counts in ((flat_w, flat_c), (hier_w, hier_c)):
                assert np.array_equal(winners, dense_w)
                assert np.array_equal(counts, dense_c)

    @pytest.mark.parametrize("block_size", [1, 7, 10**6])
    def test_blockwise_matches_monolithic(self, mols_assignment, block_size):
        tensor, _ = make_round(mols_assignment, (0, 3, 7, 8), seed=5)
        topo = GroupTopology(mols_assignment.num_workers, 3)
        mono_w, mono_c, _, _ = hierarchical_majority_vote(tensor, topo)
        mono_w = mono_w.densified()
        blk_w, blk_c, _, _ = hierarchical_majority_vote(tensor, topo, block_size=block_size)
        blk_w = blk_w.densified()
        assert np.array_equal(blk_w, mono_w)
        assert np.array_equal(blk_c, mono_c)

    def test_one_group_is_the_flat_vote(self, mols_assignment):
        tensor, _ = make_round(mols_assignment, (1, 2), seed=3)
        topo = GroupTopology(mols_assignment.num_workers, 1)
        flat = majority_vote_votetensor(tensor)
        hier = hierarchical_majority_vote(tensor, topo)
        assert np.array_equal(hier[0].densified(), flat[0].densified())
        assert np.array_equal(hier[1], flat[1])

    def test_rejects_workers_outside_topology(self, mols_assignment):
        tensor, _ = make_round(mols_assignment, seed=0)
        with pytest.raises(ConfigurationError):
            hierarchical_majority_vote(tensor, GroupTopology(5, 2))

    def test_honest_round_counts_full_replication(self, ramanujan_case2):
        assignment = ramanujan_case2.assignment
        tensor, honest = make_round(assignment, seed=9)
        topo = GroupTopology(assignment.num_workers, 5)
        winners, counts, _, _ = hierarchical_majority_vote(tensor, topo)
        winners = winners.densified()
        assert np.array_equal(winners, honest)
        assert np.array_equal(counts, np.full(assignment.num_files, assignment.replication))


# --------------------------------------------------------------------------- #
# Robustness composition: per-group budgets -> flat guarantee
# --------------------------------------------------------------------------- #
class TestRobustnessComposition:
    def test_admitted_placements_compose(self, mols_assignment):
        """Any admitted q_group-per-group placement aggregates like the flat
        path, and recovers the honest gradients whenever the flat majority
        bound holds (the file is not distorted)."""
        topo = GroupTopology(mols_assignment.num_workers, 3, q_group=1)
        rng = np.random.default_rng(42)
        for trial in range(10):
            # exactly q_group adversaries per group: q_total in all
            byz = np.array([
                rng.choice(topo.workers_of_group(g), size=topo.q_group, replace=False)
                for g in range(topo.num_groups)
            ]).ravel()
            assert topo.admits(byz)
            assert byz.size == topo.q_total
            tensor, honest = make_round(mols_assignment, byz, seed=100 + trial)
            flat_w, flat_c, _, _ = majority_vote_votetensor(tensor)
            flat_w = flat_w.densified()
            hier_w, hier_c, _, _ = hierarchical_majority_vote(tensor, topo)
            hier_w = hier_w.densified()
            assert np.array_equal(hier_w, flat_w)
            assert np.array_equal(hier_c, flat_c)
            bad = set(distorted_files(mols_assignment, byz))
            for i in range(mols_assignment.num_files):
                if i not in bad:
                    assert np.array_equal(hier_w[i], honest[i])

    def test_unadmitted_placement_still_matches_flat(self, mols_assignment):
        """Exceeding q_group loses the guarantee, never the bit-identity."""
        topo = GroupTopology(mols_assignment.num_workers, 3, q_group=1)
        byz = tuple(topo.workers_of_group(0)[:3])  # 3 adversaries in one group
        assert not topo.admits(byz)
        tensor, _ = make_round(mols_assignment, byz, seed=7)
        flat = majority_vote_votetensor(tensor)
        hier = hierarchical_majority_vote(tensor, topo)
        assert np.array_equal(hier[0].densified(), flat[0].densified())
        assert np.array_equal(hier[1], flat[1])


# --------------------------------------------------------------------------- #
# Pipeline integration
# --------------------------------------------------------------------------- #
class TestPipelineTopology:
    def test_topology_pipeline_matches_flat_pipeline(self, mols_assignment):
        tensor, _ = make_round(mols_assignment, (0, 4, 9), seed=11)
        topo = GroupTopology(mols_assignment.num_workers, 3, q_group=1)
        flat = ByzShieldPipeline(mols_assignment)
        hier = ByzShieldPipeline(mols_assignment, topology=topo)
        assert np.array_equal(
            hier.aggregate_tensor(tensor).aggregate, flat.aggregate_tensor(tensor).aggregate
        )

    def test_topology_pipeline_matches_flat_under_partial_mask(self, mols_assignment):
        tensor, _ = make_round(mols_assignment, (0, 4), seed=13)
        rng = np.random.default_rng(0)
        mask = rng.random(tensor.workers.shape) < 0.7
        mask[:, 0] = True  # keep every file aggregatable
        topo = GroupTopology(mols_assignment.num_workers, 5)
        flat = ByzShieldPipeline(mols_assignment)
        hier = ByzShieldPipeline(mols_assignment, topology=topo)
        assert np.array_equal(
            hier.aggregate_tensor(tensor, mask).aggregate,
            flat.aggregate_tensor(tensor, mask).aggregate,
        )

    def test_blockwise_pipeline_matches_monolithic(self, frc_15_3):
        assignment = frc_15_3.assignment
        tensor, _ = make_round(assignment, (2, 6), seed=17)
        topo = GroupTopology(assignment.num_workers, 5)
        mono = DetoxPipeline(assignment)
        blk = DetoxPipeline(assignment, topology=topo, block_size=5)
        assert np.array_equal(
            blk.aggregate_tensor(tensor).aggregate, mono.aggregate_tensor(tensor).aggregate
        )

    def test_topology_worker_count_mismatch_rejected(self, mols_assignment):
        with pytest.raises(ConfigurationError):
            ByzShieldPipeline(mols_assignment, topology=GroupTopology(10, 2))

    def test_vanilla_rejects_topology_and_block_size(self, baseline_10):
        assignment = baseline_10.assignment
        with pytest.raises(ConfigurationError):
            VanillaPipeline(
                assignment,
                aggregator=CoordinateWiseMedian(),
                topology=GroupTopology(assignment.num_workers, 2),
            )
        with pytest.raises(ConfigurationError):
            VanillaPipeline(
                assignment, aggregator=CoordinateWiseMedian(), block_size=8
            )

    def test_draco_accepts_topology(self, frc_15_3):
        assignment = frc_15_3.assignment
        tensor, _ = make_round(assignment, (1,), seed=19)
        topo = GroupTopology(assignment.num_workers, 3)
        flat = DracoPipeline(assignment, num_byzantine=1)
        hier = DracoPipeline(assignment, num_byzantine=1, topology=topo)
        assert np.array_equal(
            hier.aggregate_tensor(tensor).aggregate, flat.aggregate_tensor(tensor).aggregate
        )
