"""VoteTensor edge cases: degenerate shapes and over-budget adversaries.

The paper's tolerance bound says majority voting recovers a file whenever
fewer than ``r' = ceil((r+1)/2)`` of its copies are adversarial.  Above the
bound there is no correctness guarantee — but the implementation must still
*degrade gracefully* (return the colluding payload, report the distortion)
rather than crash.  Alongside that, the packed representation has to work at
the degenerate extremes: a single file, one-dimensional gradients, and a
round where every single worker is compromised.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregation.majority import majority_vote_votetensor
from repro.assignment.frc import FRCAssignment
from repro.core.pipelines import ByzShieldPipeline, DetoxPipeline
from repro.core.vote_tensor import VoteTensor
from repro.exceptions import ConfigurationError
from repro.scenarios import ScenarioSpec, get_scenario, run_scenario


class TestSingleFile:
    """f = 1: FRC with one group is a one-file assignment."""

    @pytest.fixture
    def assignment(self):
        return FRCAssignment(num_workers=3, replication=3).assignment

    def test_from_honest_single_file(self, assignment):
        assert assignment.num_files == 1
        tensor = VoteTensor.from_honest(assignment, np.array([[1.0, 2.0, 3.0]]))
        assert tensor.shape == (1, 3, 3)
        winners, counts = majority_vote_votetensor(tensor)
        np.testing.assert_array_equal(winners.densified(), [[1.0, 2.0, 3.0]])
        assert counts.tolist() == [3]

    def test_single_file_round_aggregates(self, assignment):
        tensor = VoteTensor.from_honest(assignment, np.array([[1.0, 2.0, 3.0]]))
        tensor.write_slots([0], [2], np.array([9.0, 9.0, 9.0]))  # one corrupted copy
        pipeline = DetoxPipeline(assignment)
        np.testing.assert_array_equal(
            pipeline.aggregate_tensor(tensor).aggregate, [1.0, 2.0, 3.0]
        )


class TestScalarGradients:
    """d = 1: one-parameter models must flow through the whole kernel."""

    def test_majority_with_d1(self, mols_assignment):
        honest = np.arange(mols_assignment.num_files, dtype=np.float64)[:, None]
        tensor = VoteTensor.from_honest(mols_assignment, honest)
        winners, counts = majority_vote_votetensor(tensor)
        np.testing.assert_array_equal(winners.densified(), honest)
        assert np.all(counts == mols_assignment.replication)

    def test_d1_with_minority_corruption(self, mols_assignment):
        honest = np.ones((mols_assignment.num_files, 1))
        tensor = VoteTensor.from_honest(mols_assignment, honest)
        worker = int(tensor.workers[0, 0])
        files, slots = np.nonzero(tensor.workers == worker)
        tensor.write_slots(files, slots, np.array([-5.0]))
        winners, _ = majority_vote_votetensor(tensor)
        np.testing.assert_array_equal(winners.densified(), honest)  # r=3 outvotes 1 copy


class TestAllAdversarialFiles:
    """Every copy of every file is Byzantine: the vote must yield the
    colluding payload (no honest copies remain) without raising."""

    def test_unanimous_payload_wins(self, mols_assignment):
        f = mols_assignment.num_files
        honest = np.ones((f, 4))
        tensor = VoteTensor.from_honest(mols_assignment, honest)
        tensor.mark_byzantine(tuple(range(mols_assignment.num_workers)))
        payload = np.full(4, -7.0)
        tensor.write_slots(*np.nonzero(tensor.byzantine_mask), payload)
        assert bool(tensor.byzantine_mask.all())
        winners, counts = majority_vote_votetensor(tensor)
        np.testing.assert_array_equal(winners.densified(), np.tile(payload, (f, 1)))
        assert np.all(counts == mols_assignment.replication)

    def test_pipeline_returns_payload_not_error(self, mols_assignment):
        tensor = VoteTensor.from_honest(
            mols_assignment, np.ones((mols_assignment.num_files, 4))
        )
        tensor.write_slots(*np.nonzero(np.ones(tensor.workers.shape, dtype=bool)), -7.0)
        result = ByzShieldPipeline(mols_assignment).aggregate_tensor(tensor).aggregate
        np.testing.assert_array_equal(result, np.full(4, -7.0))


class TestOverBudgetAdversary:
    """q above the paper's tolerance bound degrades gracefully."""

    def test_scenario_with_all_workers_byzantine_completes(self):
        data = get_scenario("mols-clean").to_dict()
        data["name"] = "edge-all-byzantine"
        data["attack"] = {
            "name": "constant",
            "params": {"value": -1.0},
            "selection": "random",
            "schedule": {"kind": "static", "q": 15},  # every worker, K = 15
        }
        result = run_scenario(ScenarioSpec.from_dict(data))
        assert len(result.trace.rounds) == 4
        # Every file's majority is corrupted every round.
        assert all(
            r.num_distorted == 25 and r.q == 15 for r in result.trace.rounds
        )
        assert float(result.history.distortion_fractions.mean()) == 1.0

    def test_omniscient_q_above_bound_completes(self):
        data = get_scenario("mols-alie-omniscient").to_dict()
        data["name"] = "edge-q-over-bound"
        # MOLS l=5, r=3 tolerates few Byzantines; q=9 of K=15 is far above.
        data["attack"]["schedule"] = {"kind": "static", "q": 9}
        result = run_scenario(ScenarioSpec.from_dict(data))
        assert len(result.trace.rounds) == 4
        assert all(r.num_distorted > 0 for r in result.trace.rounds)

    def test_schedule_rejects_q_above_cluster_size(self):
        data = get_scenario("mols-clean").to_dict()
        data["attack"] = {
            "name": "constant",
            "selection": "random",
            "schedule": {"kind": "static", "q": 16},  # K = 15
        }
        from repro.exceptions import AttackError

        with pytest.raises(AttackError, match="q=16"):
            run_scenario(ScenarioSpec.from_dict(data))


class TestShapeValidation:
    def test_empty_values_rejected(self, mols_assignment):
        with pytest.raises(ConfigurationError, match=r"\(f, d\)"):
            VoteTensor.from_honest(mols_assignment, np.zeros(mols_assignment.num_files))

    def test_honest_matrix_row_count_must_match_files(self, mols_assignment):
        with pytest.raises(ConfigurationError, match="rows"):
            VoteTensor.from_honest(mols_assignment, np.ones((3, 4)))
