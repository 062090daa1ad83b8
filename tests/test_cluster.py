"""Tests for the round's stages: worker pool, PS, cluster round, timing.

Every stage is built the one way, by the ``DistributedTrainer`` constructor;
these tests drive the stage its trainer owns.  What each stage computes is
compared with the reference round on every golden (``test_reference_round.py``).
"""

import tracemalloc

import numpy as np
import pytest

from repro.aggregation.median import CoordinateWiseMedian
from repro.assignment.frc import FRCAssignment
from repro.assignment.mols import MOLSAssignment
from repro.attacks.constant import ConstantAttack
from repro.attacks.reversed_gradient import ReversedGradientAttack
from repro.attacks.selection import OmniscientSelector
from repro.cluster.timing import CostModel, estimate_iteration_timing
from repro.core.pipelines import AggregationPipeline
from repro.core.vote_tensor import VoteTensor
from repro.data.batching import RoundFiles
from repro.data.synthetic import make_gaussian_mixture
from repro.exceptions import ConfigurationError, TrainingError
from repro.scenarios.spec import TrainingSpec
from repro.training.trainer import DistributedTrainer

from cow_helpers import FixedSelector, cube_of


DIM = 3


def quadratic_gradient_fn(params, inputs, labels):
    """Gradient of 0.5*||params - mean(inputs row-sum direction)||^2 — simple test oracle."""
    target = np.full(DIM, float(inputs.sum()))
    gradient = params - target
    loss = 0.5 * float(np.sum(gradient**2))
    return gradient, loss


def make_file_data(num_files, samples_per_file=2, seed=0):
    rng = np.random.default_rng(seed)
    return RoundFiles.coerce({
        i: (rng.standard_normal((samples_per_file, 4)), rng.integers(0, 2, samples_per_file))
        for i in range(num_files)
    })


class FileOracle:
    """A test gradient oracle from a per-file ``fn(params, inputs, labels) ->
    (gradient, loss)``: ``batched`` runs it file by file and stacks the rows."""

    def __init__(self, fn=quadratic_gradient_fn, dim=DIM, initial=0.0):
        self.fn, self.dim, self.initial = fn, dim, initial

    def batched(self, params, files):
        pairs = [self.fn(params, *files.file(i)) for i in range(len(files))]
        return np.stack([gradient for gradient, _ in pairs]), np.array([loss for _, loss in pairs])

    def initial_params(self):
        return np.full(self.dim, self.initial)


def build_trainer(assignment, oracle=None, pipeline=None, momentum=0.0, seed=0, **kwargs):
    """A trainer over a stand-in dataset: these tests hand its stages their own
    parameters and files."""
    data = make_gaussian_mixture(num_samples=assignment.num_files, num_classes=2, dim=4, seed=0)
    return DistributedTrainer(
        pipeline or AggregationPipeline(assignment),
        oracle or FileOracle(),
        data,
        data,
        TrainingSpec(batch_size=assignment.num_files, learning_rate=0.5, momentum=momentum),
        seed=seed,
        **kwargs,
    )


def build_cluster(assignment, oracle=None, **kwargs):
    return build_trainer(assignment, oracle, **kwargs).cluster


# --------------------------------------------------------------------------- #
# WorkerPool
# --------------------------------------------------------------------------- #
def test_worker_pool_requires_complete_file_data(mols_assignment):
    cluster = build_cluster(mols_assignment)
    with pytest.raises(ConfigurationError, match="24 rows, assignment has 25 files"):
        cluster.run_round_tensor(np.zeros(DIM), make_file_data(24), 0)


def test_worker_pool_honest_returns_structure(mols_assignment):
    pool = build_cluster(mols_assignment).worker_pool
    tensor, honest, losses = pool.honest_returns_tensor(
        np.zeros(DIM), make_file_data(25)
    )
    assert tensor.shape == (25, 3, DIM)
    assert tensor.num_overridden_slots == tensor.num_override_rows == 0
    assert losses.shape == (25,)
    assert np.all(np.isfinite(losses))
    for file_index in range(25):
        assert tuple(tensor.workers[file_index]) == mols_assignment.workers_of_file(
            file_index
        )
    # every assigned worker returns a bit-identical copy of the file's gradient
    assert np.array_equal(cube_of(tensor), np.repeat(honest[:, None, :], 3, axis=1))


# --------------------------------------------------------------------------- #
# ParameterServer
# --------------------------------------------------------------------------- #
def test_broadcast_is_a_read_only_view_that_outlives_the_step(mols_assignment):
    """``broadcast()`` allocates no parameter vector: it is a read-only view
    of ``w_t``, and the step that follows replaces ``w_t`` instead of
    writing into it, so the view a round held still reads ``w_t``."""
    dim = 50_000
    pipeline = AggregationPipeline(mols_assignment, aggregator=CoordinateWiseMedian())
    initial = np.random.default_rng(4).standard_normal(dim)
    oracle = FileOracle(dim=dim, initial=initial)
    server = build_trainer(mols_assignment, oracle, pipeline=pipeline, momentum=0.9).server
    server.broadcast()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sent = server.broadcast()
        allocated = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert allocated < 1024  # a view's header, not 50,000 float64s
    assert np.shares_memory(sent, server._params)
    assert sent.tobytes() == initial.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        sent[0] = 1.0
    params = server.params  # the public property is still a copy
    params[0] = 1.0
    assert server.broadcast()[0] == initial[0]

    honest = np.random.default_rng(5).standard_normal((mols_assignment.num_files, dim))
    server.update_tensor(VoteTensor.from_honest(mols_assignment, honest))
    assert sent.tobytes() == initial.tobytes()
    assert not np.shares_memory(sent, server.broadcast())
    assert server.optimizer.iteration == 1


def test_parameter_server_validation(mols_assignment):
    with pytest.raises(TrainingError, match="initial parameter vector is empty"):
        build_trainer(mols_assignment, FileOracle(dim=0))


# --------------------------------------------------------------------------- #
# TrainingCluster
# --------------------------------------------------------------------------- #
def test_cluster_round_without_attack(mols_assignment):
    cluster = build_cluster(mols_assignment)
    result = cluster.run_round_tensor(np.zeros(DIM), make_file_data(25), iteration=0)
    assert result.byzantine_workers == ()
    assert result.distorted_files == ()
    assert result.distortion_fraction == 0.0
    assert result.vote_tensor.workers.size == 25 * 3
    assert not result.vote_tensor.byzantine_mask.any()
    assert result.vote_tensor.num_overridden_slots == 0
    assert np.isfinite(result.mean_file_loss)


def test_cluster_round_omniscient_matches_worst_case(mols_assignment):
    cluster = build_cluster(
        mols_assignment,
        attack=ReversedGradientAttack(),
        selector=OmniscientSelector(num_byzantine=3),
    )
    result = cluster.run_round_tensor(np.ones(DIM), make_file_data(25), iteration=0)
    assert len(result.distorted_files) == 3  # c_max for q=3 on this graph
    assert result.distortion_fraction == pytest.approx(0.12)


def test_cluster_requires_attack_and_selector_together(mols_assignment):
    with pytest.raises(TrainingError):
        build_cluster(mols_assignment, attack=ConstantAttack(), selector=None)
    with pytest.raises(TrainingError):
        build_cluster(mols_assignment, attack=None, selector=FixedSelector([0]))


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


def test_cluster_seed_is_an_int(mols_assignment):
    """Every round and fault stream derives from ``(seed, round)``, so a live
    Generator (whose draws would depend on call order) is refused."""
    with pytest.raises(TypeError):
        build_cluster(mols_assignment, seed=np.random.default_rng(42))
