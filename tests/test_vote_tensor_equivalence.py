"""Equivalence tests: the VoteTensor round vs the pure-Python reference oracles.

The golden traces were recorded from the vectorized round itself, so they pin
it against drift but not against being wrong.  These tests check it against
independent implementations at three levels: the majority kernel vs the
single-file reference votes (random tensors, forced hash collisions, byte-
equality semantics), one simulated round of every assignment scheme x
registered attack aggregated by every pipeline vs the same aggregate computed
file by file with the reference votes, and the round's determinism under a
stochastic selector and attack.
"""

import numpy as np
import pytest

from repro.aggregation import majority as majority_module
from repro.aggregation.majority import majority_vote_tensor
from repro.aggregation.median import CoordinateWiseMedian
from repro.assignment.baseline import BaselineAssignment
from repro.assignment.frc import FRCAssignment
from repro.assignment.mols import MOLSAssignment
from repro.assignment.ramanujan import RamanujanAssignment
from repro.attacks.registry import available_attacks, create_attack
from repro.attacks.selection import FixedSelector, RandomSelector
from repro.cluster.simulator import TrainingCluster
from repro.cluster.worker import WorkerPool
from repro.core.pipelines import (
    ByzShieldPipeline,
    DetoxPipeline,
    DracoPipeline,
    VanillaPipeline,
)
from repro.core.vote_tensor import VoteTensor

DIM = 6


def gradient_fn(params, inputs, labels):
    """Deterministic per-file oracle: gradient depends on the file's data."""
    target = np.full(DIM, float(inputs.sum()) / (1.0 + abs(float(labels.sum()))))
    gradient = params - target
    return gradient, 0.5 * float(np.sum(gradient**2))


def make_file_data(num_files, seed=0):
    rng = np.random.default_rng(seed)
    return {
        i: (rng.standard_normal((3, 4)), rng.integers(0, 3, 3))
        for i in range(num_files)
    }


SCHEMES = {
    "mols": lambda: MOLSAssignment(load=5, replication=3).assignment,
    "ramanujan": lambda: RamanujanAssignment(m=3, s=5).assignment,
    "frc": lambda: FRCAssignment(num_workers=15, replication=3).assignment,
    "baseline": lambda: BaselineAssignment(num_workers=10).assignment,
}


def pipelines_for(name, assignment, tolerance):
    if name in ("mols", "ramanujan"):
        return [ByzShieldPipeline(assignment, vote_tolerance=tolerance)]
    if name == "frc":
        return [
            DetoxPipeline(assignment, vote_tolerance=tolerance),
            DracoPipeline(assignment, num_byzantine=1, vote_tolerance=tolerance),
        ]
    return [VanillaPipeline(assignment, aggregator=CoordinateWiseMedian())]


def simulate_round(assignment, attack, selector, seed=11):
    pool = WorkerPool(assignment, gradient_fn)
    cluster = TrainingCluster(
        assignment, pool, attack=attack, selector=selector, seed=seed
    )
    data = make_file_data(assignment.num_files, seed=seed)
    return cluster.run_round_tensor(np.linspace(-1.0, 1.0, DIM), data, iteration=2)


def reference_winners(tensor, tolerance):
    """Per-file reference vote over the materialized ``(f, r, d)`` copies."""
    cube = tensor.materialize_files(np.arange(tensor.num_files))
    if tolerance == 0.0:
        votes = [majority_module._reference_exact_majority(m) for m in cube]
    else:
        votes = [
            majority_module._reference_clustered_majority(m, tolerance) for m in cube
        ]
    return np.vstack([winner for winner, _ in votes])


def reference_aggregate(pipeline, tensor, tolerance):
    if pipeline.pipeline_name == "vanilla":
        return pipeline.aggregator(tensor.materialize_files(np.arange(tensor.num_files))[:, 0])
    voted = reference_winners(tensor, tolerance)
    if pipeline.pipeline_name == "draco":
        return voted.mean(axis=0)
    return pipeline.aggregator(voted)


# --------------------------------------------------------------------------- #
# Kernel vs reference implementations
# --------------------------------------------------------------------------- #
def test_kernel_matches_reference_on_random_tensors():
    rng = np.random.default_rng(42)
    for trial in range(150):
        f, r, d = rng.integers(1, 7), rng.integers(1, 7), rng.integers(1, 9)
        values = rng.integers(-2, 3, (f, r, d)).astype(np.float64)
        if trial % 2 == 0:  # plant replicated-copy structure
            values[:, 1:] = values[:, :1]
            for _ in range(rng.integers(0, 5)):
                i, a, b = rng.integers(f), rng.integers(r), rng.integers(r)
                values[i, a] = values[i, b] + rng.integers(0, 2)
        for tolerance in (0.0, 1.5):
            winners, counts = majority_vote_tensor(values, tolerance)
            for i in range(f):
                if tolerance == 0.0:
                    ref_w, ref_c = majority_module._reference_exact_majority(
                        values[i]
                    )
                else:
                    ref_w, ref_c = majority_module._reference_clustered_majority(
                        values[i], tolerance
                    )
                assert np.array_equal(winners[i], ref_w), (trial, tolerance, i)
                assert counts[i] == ref_c, (trial, tolerance, i)


def test_kernel_survives_hash_collisions(monkeypatch):
    """Degenerate hash weights force every slot into one hash bucket; the
    verification step must detect it and fall back without changing results."""
    d = 5
    monkeypatch.setitem(
        majority_module._HASH_WEIGHTS, d, np.zeros(d, dtype=np.uint64)
    )
    rng = np.random.default_rng(3)
    for _ in range(60):
        f, r = rng.integers(1, 6), rng.integers(2, 7)
        values = rng.integers(-1, 2, (f, r, d)).astype(np.float64)
        for tolerance in (0.0, 1.2):
            winners, counts = majority_vote_tensor(values, tolerance)
            for i in range(f):
                if tolerance == 0.0:
                    ref_w, ref_c = majority_module._reference_exact_majority(
                        values[i]
                    )
                else:
                    ref_w, ref_c = majority_module._reference_clustered_majority(
                        values[i], tolerance
                    )
                assert np.array_equal(winners[i], ref_w)
                assert counts[i] == ref_c


def test_kernel_byte_equality_semantics():
    """NaN payloads with equal bits count as equal; -0.0 and +0.0 do not."""
    values = np.zeros((1, 3, 2))
    values[0, 0] = np.nan
    values[0, 1] = np.nan
    values[0, 2] = 1.0
    winners, counts = majority_vote_tensor(values)
    assert counts[0] == 2 and np.isnan(winners[0]).all()

    values = np.zeros((1, 3, 1))
    values[0, 0] = -0.0
    values[0, 1] = 0.0
    values[0, 2] = -0.0
    winners, counts = majority_vote_tensor(values)
    assert counts[0] == 2 and np.signbit(winners[0, 0])


# --------------------------------------------------------------------------- #
# One round, all schemes x registered attacks: pipelines vs the reference vote
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("attack_name", available_attacks())
def test_round_and_aggregates_identical(scheme, attack_name):
    assignment = SCHEMES[scheme]()
    attack = create_attack(attack_name)
    selector = FixedSelector([0, min(5, assignment.num_workers - 1)])
    result = simulate_round(assignment, attack, selector)
    tensor = result.vote_tensor
    assert tensor.is_lazy

    # honest slots carry the ground truth, Byzantine slots something else
    cube = tensor.materialize_files(np.arange(assignment.num_files))
    replicated = np.repeat(result.honest_matrix[:, None, :], cube.shape[1], axis=1)
    honest_slots = ~tensor.byzantine_mask
    assert np.array_equal(cube[honest_slots], replicated[honest_slots])
    assert not np.array_equal(cube, replicated)

    for tolerance in (0.0, 1e-9, 0.5):
        for pipeline in pipelines_for(scheme, assignment, tolerance):
            expected = reference_aggregate(pipeline, tensor, tolerance)
            for view in (tensor.copy(), VoteTensor(cube.copy(), tensor.workers)):
                assert np.array_equal(pipeline.aggregate_tensor(view).aggregate, expected), (
                    scheme,
                    attack_name,
                    tolerance,
                    pipeline.pipeline_name,
                    "lazy" if view.is_lazy else "dense",
                )


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_round_identical_under_random_selection(scheme):
    """Stochastic selector + stochastic attack: the round is a pure function
    of (seed, iteration) — two independently built clusters agree bit for bit."""
    assignment = SCHEMES[scheme]()
    every_file = np.arange(assignment.num_files)

    def cube(seed):
        result = simulate_round(
            assignment,
            create_attack("gaussian_noise", sigma=3.0),
            RandomSelector(num_byzantine=2),
            seed=seed,
        )
        return result.byzantine_workers, result.vote_tensor.materialize_files(every_file)

    first, second, other = cube(19), cube(19), cube(20)
    assert first[0] == second[0]
    assert np.array_equal(first[1], second[1])
    assert not np.array_equal(first[1], other[1])


def test_byzantine_mask_matches_selection(mols_assignment):
    result = simulate_round(mols_assignment, create_attack("constant"), FixedSelector([0, 5]))
    mask = result.vote_tensor.byzantine_mask
    expected = np.isin(result.vote_tensor.workers, [0, 5])
    assert np.array_equal(mask, expected)


def test_aggregate_tensor_validates_layout(mols_assignment, frc_15_3):
    pipeline = ByzShieldPipeline(mols_assignment)
    wrong = VoteTensor.from_honest(
        frc_15_3.assignment,
        np.zeros((frc_15_3.assignment.num_files, DIM)),
    )
    from repro.exceptions import AggregationError

    with pytest.raises(AggregationError):
        pipeline.aggregate_tensor(wrong)
