"""Tests for the cluster simulation: worker pool, PS, round simulator, timing."""

import numpy as np
import pytest

from repro.aggregation.median import CoordinateWiseMedian
from repro.assignment.frc import FRCAssignment
from repro.assignment.mols import MOLSAssignment
from repro.attacks.constant import ConstantAttack
from repro.attacks.reversed_gradient import ReversedGradientAttack
from repro.attacks.selection import FixedSelector, OmniscientSelector
from repro.cluster.server import ParameterServer
from repro.cluster.simulator import TrainingCluster
from repro.cluster.timing import CostModel, estimate_iteration_timing
from repro.cluster.worker import WorkerPool
from repro.core.pipelines import ByzShieldPipeline
from repro.exceptions import ConfigurationError, TrainingError
from repro.nn.optim import SGD


DIM = 3


def quadratic_gradient_fn(params, inputs, labels):
    """Gradient of 0.5*||params - mean(inputs row-sum direction)||^2 — simple test oracle."""
    target = np.full(DIM, float(inputs.sum()))
    gradient = params - target
    loss = 0.5 * float(np.sum(gradient**2))
    return gradient, loss


def make_file_data(num_files, samples_per_file=2, seed=0):
    rng = np.random.default_rng(seed)
    return {
        i: (rng.standard_normal((samples_per_file, 4)), rng.integers(0, 2, samples_per_file))
        for i in range(num_files)
    }


# --------------------------------------------------------------------------- #
# WorkerPool
# --------------------------------------------------------------------------- #
def test_worker_pool_computes_all_files(mols_assignment):
    pool = WorkerPool(mols_assignment, quadratic_gradient_fn)
    file_data = make_file_data(25)
    gradients, losses = pool.compute_file_gradient_matrix(np.zeros(DIM), file_data)
    assert gradients.shape == (25, DIM)
    assert losses.shape == (25,)
    assert np.all(np.isfinite(losses))


def test_worker_pool_requires_complete_file_data(mols_assignment):
    pool = WorkerPool(mols_assignment, quadratic_gradient_fn)
    with pytest.raises(TrainingError):
        pool.compute_file_gradient_matrix(np.zeros(DIM), make_file_data(24))


def test_worker_pool_honest_returns_structure(mols_assignment):
    pool = WorkerPool(mols_assignment, quadratic_gradient_fn)
    tensor, honest, losses = pool.honest_returns_tensor(
        np.zeros(DIM), make_file_data(25)
    )
    assert tensor.shape == (25, 3, DIM)
    assert tensor.is_lazy and tensor.num_overridden_slots == 0
    assert losses.shape == (25,)
    for file_index in range(25):
        assert tuple(tensor.workers[file_index]) == mols_assignment.workers_of_file(
            file_index
        )
    # every assigned worker returns a bit-identical copy of the file's gradient
    every_file = np.arange(25)
    assert np.array_equal(
        tensor.materialize_files(every_file), np.repeat(honest[:, None, :], 3, axis=1)
    )


def test_worker_pool_shared_vs_recomputed_identical(mols_assignment):
    """The pool computes each file once and shares it; every worker
    recomputing its own copy with the oracle returns the same bits."""
    pool = WorkerPool(mols_assignment, quadratic_gradient_fn)
    data = make_file_data(25)
    tensor, _, _ = pool.honest_returns_tensor(np.ones(DIM), data)
    for i in range(25):
        for worker in mols_assignment.workers_of_file(i):
            recomputed, _ = quadratic_gradient_fn(np.ones(DIM), *data[i])
            slot = tensor.slot_of(i, worker)
            assert np.array_equal(tensor.read_slots([i], [slot])[0], recomputed)


# --------------------------------------------------------------------------- #
# ParameterServer
# --------------------------------------------------------------------------- #
def test_parameter_server_update(mols_assignment):
    pipeline = ByzShieldPipeline(mols_assignment, aggregator=CoordinateWiseMedian())
    server = ParameterServer(np.zeros(DIM), pipeline, SGD(0.5))
    pool = WorkerPool(mols_assignment, quadratic_gradient_fn)
    tensor, honest, _ = pool.honest_returns_tensor(
        server.broadcast(), make_file_data(25)
    )
    gradient = server.update_tensor(tensor).aggregate
    expected = np.median(honest, axis=0)
    assert np.allclose(gradient, expected)
    assert np.allclose(server.params, -0.5 * expected)
    assert server.iteration == 1


def test_parameter_server_validation(mols_assignment):
    pipeline = ByzShieldPipeline(mols_assignment)
    with pytest.raises(TrainingError):
        ParameterServer(np.zeros(0), pipeline, SGD(0.1))


# --------------------------------------------------------------------------- #
# TrainingCluster
# --------------------------------------------------------------------------- #
def test_cluster_round_without_attack(mols_assignment):
    pool = WorkerPool(mols_assignment, quadratic_gradient_fn)
    cluster = TrainingCluster(mols_assignment, pool)
    result = cluster.run_round_tensor(np.zeros(DIM), make_file_data(25), iteration=0)
    assert result.byzantine_workers == ()
    assert result.distorted_files == ()
    assert result.distortion_fraction == 0.0
    assert result.vote_tensor.workers.size == 25 * 3
    assert not result.vote_tensor.byzantine_mask.any()
    assert result.vote_tensor.num_overridden_slots == 0
    assert np.isfinite(result.mean_file_loss)


def test_cluster_round_with_attack_marks_byzantine_messages(mols_assignment):
    pool = WorkerPool(mols_assignment, quadratic_gradient_fn)
    cluster = TrainingCluster(
        mols_assignment,
        pool,
        attack=ConstantAttack(value=-9.0),
        selector=FixedSelector([0, 5]),
        seed=0,
    )
    result = cluster.run_round_tensor(np.zeros(DIM), make_file_data(25), iteration=0)
    assert result.byzantine_workers == (0, 5)
    # Workers 0 and 5 share exactly file 0: its majority flips.
    assert result.distorted_files == (0,)
    assert result.distortion_fraction == pytest.approx(1 / 25)
    tensor = result.vote_tensor
    assert np.array_equal(tensor.byzantine_mask, np.isin(tensor.workers, [0, 5]))
    files, slots = np.nonzero(tensor.byzantine_mask)
    assert files.size == 10  # 2 workers x 5 files each
    assert np.all(tensor.read_slots(files, slots) == -9.0)
    # every other message still carries the honest gradient
    files, slots = np.nonzero(~tensor.byzantine_mask)
    assert np.array_equal(tensor.read_slots(files, slots), result.honest_matrix[files])


def test_cluster_round_omniscient_matches_worst_case(mols_assignment):
    pool = WorkerPool(mols_assignment, quadratic_gradient_fn)
    cluster = TrainingCluster(
        mols_assignment,
        pool,
        attack=ReversedGradientAttack(),
        selector=OmniscientSelector(num_byzantine=3, method="exhaustive"),
        seed=0,
    )
    result = cluster.run_round_tensor(np.ones(DIM), make_file_data(25), iteration=0)
    assert len(result.distorted_files) == 3  # c_max for q=3 on this graph
    assert result.distortion_fraction == pytest.approx(0.12)


def test_cluster_round_deterministic_given_seed(mols_assignment):
    def build():
        pool = WorkerPool(mols_assignment, quadratic_gradient_fn)
        return TrainingCluster(
            mols_assignment,
            pool,
            attack=ConstantAttack(),
            selector=FixedSelector([0]),
            seed=11,
        )

    data = make_file_data(25)
    every_file = np.arange(25)
    a = build().run_round_tensor(np.zeros(DIM), data, iteration=2)
    b = build().run_round_tensor(np.zeros(DIM), data, iteration=2)
    assert np.array_equal(
        a.vote_tensor.materialize_files(every_file),
        b.vote_tensor.materialize_files(every_file),
    )


def test_cluster_requires_attack_and_selector_together(mols_assignment):
    pool = WorkerPool(mols_assignment, quadratic_gradient_fn)
    with pytest.raises(TrainingError):
        TrainingCluster(mols_assignment, pool, attack=ConstantAttack(), selector=None)
    with pytest.raises(TrainingError):
        TrainingCluster(mols_assignment, pool, attack=None, selector=FixedSelector([0]))


# --------------------------------------------------------------------------- #
# Timing / cost model
# --------------------------------------------------------------------------- #
def test_timing_redundancy_costs_more_compute_and_communication():
    from repro.assignment.baseline import BaselineAssignment

    baseline = BaselineAssignment(25).assignment
    byzshield = MOLSAssignment(load=5, replication=3).assignment
    base = estimate_iteration_timing(baseline, 750, 10_000, "median", uses_majority_vote=False)
    byz = estimate_iteration_timing(byzshield, 750, 10_000, "median", uses_majority_vote=True)
    assert byz.computation > base.computation
    assert byz.communication > base.communication
    assert byz.aggregation > base.aggregation
    assert byz.total > base.total
    assert base.as_dict()["total"] == pytest.approx(base.total)


def test_timing_detox_communication_less_than_byzshield():
    byzshield = MOLSAssignment(load=5, replication=3).assignment
    detox = FRCAssignment(num_workers=15, replication=3).assignment
    byz = estimate_iteration_timing(byzshield, 750, 10_000, "median")
    det = estimate_iteration_timing(detox, 750, 10_000, "median_of_means")
    assert det.communication < byz.communication


def test_timing_validation_and_cost_model():
    byzshield = MOLSAssignment(load=5, replication=3).assignment
    with pytest.raises(ConfigurationError):
        estimate_iteration_timing(byzshield, 0, 100)
    with pytest.raises(ConfigurationError):
        CostModel(network_per_float=-1.0)
    custom = CostModel(network_latency_per_message=0.0)
    timing = estimate_iteration_timing(byzshield, 750, 1000, cost_model=custom)
    assert timing.communication == pytest.approx(5 * 1000 * custom.network_per_float)


def test_timing_unknown_aggregator_defaults():
    byzshield = MOLSAssignment(load=5, replication=3).assignment
    timing = estimate_iteration_timing(byzshield, 750, 1000, aggregator_name="mystery")
    assert timing.aggregation > 0.0


def test_fault_streams_independent_with_generator_seed(mols_assignment):
    """Even when the cluster is seeded with a live Generator, toggling fault
    injection must not change the adversary's draws (the fault base seed is
    derived once at construction)."""
    from repro.attacks.constant import ConstantAttack
    from repro.attacks.selection import RandomSelector
    from repro.cluster.faults import MessageCorruptionInjector

    def fn(params, inputs, labels):
        return np.asarray(inputs).sum(axis=0)[:4], 0.5

    file_data = {
        i: (np.ones((2, 4)) * (i + 1), np.zeros(2))
        for i in range(mols_assignment.num_files)
    }
    params = np.zeros(4)

    def byzantine_sets(with_faults: bool):
        pool = WorkerPool(mols_assignment, fn)
        injectors = (
            (MessageCorruptionInjector(probability=0.3, mode="zero"),)
            if with_faults
            else ()
        )
        cluster = TrainingCluster(
            assignment=mols_assignment,
            worker_pool=pool,
            attack=ConstantAttack(value=-1.0),
            selector=RandomSelector(num_byzantine=3),
            seed=np.random.default_rng(42),
            fault_injectors=injectors,
        )
        return [
            cluster.run_round_tensor(params, file_data, t).byzantine_workers
            for t in range(3)
        ]

    assert byzantine_sets(False) == byzantine_sets(True)
