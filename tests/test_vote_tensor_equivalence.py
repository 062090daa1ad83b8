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
from repro.aggregation.majority import majority_vote_votetensor
from repro.aggregation.mean import MeanAggregator
from repro.aggregation.median import CoordinateWiseMedian
from repro.assignment.baseline import BaselineAssignment
from repro.assignment.frc import FRCAssignment
from repro.assignment.mols import MOLSAssignment
from repro.assignment.ramanujan import RamanujanAssignment
from repro.attacks.registry import available_attacks, create_attack
from repro.attacks.schedules import ScheduledSelector
from repro.core.pipelines import AggregationPipeline
from repro.core.vote_tensor import VoteTensor
from repro.data.batching import RoundFiles
from repro.scenarios.spec import ScheduleSpec

from cow_helpers import FixedSelector, cube_of, tensor_of
from reference_vote import reference_vote
from test_cluster import FileOracle, build_cluster

DIM = 6


def gradient_fn(params, inputs, labels):
    """Deterministic per-file oracle: gradient depends on the file's data."""
    target = np.full(DIM, float(inputs.sum()) / (1.0 + abs(float(labels.sum()))))
    gradient = params - target
    return gradient, 0.5 * float(np.sum(gradient**2))


def make_file_data(num_files, seed=0):
    rng = np.random.default_rng(seed)
    return RoundFiles.coerce({
        i: (rng.standard_normal((3, 4)), rng.integers(0, 3, 3))
        for i in range(num_files)
    })


SCHEMES = {
    "mols": lambda: MOLSAssignment(load=5, replication=3).assignment,
    "ramanujan": lambda: RamanujanAssignment(m=3, s=5).assignment,
    "frc": lambda: FRCAssignment(num_workers=15, replication=3).assignment,
    "baseline": lambda: BaselineAssignment(num_workers=10).assignment,
}


#: The paper's schemes, each as the one pipeline over its assignment and
#: rule, with the rule the reference applies to the reference winners
PIPELINES = {
    "mols-byzshield": ("mols", CoordinateWiseMedian, CoordinateWiseMedian()),
    "ramanujan-byzshield": ("ramanujan", CoordinateWiseMedian, CoordinateWiseMedian()),
    "frc-detox": ("frc", CoordinateWiseMedian, CoordinateWiseMedian()),
    "frc-draco": ("frc", MeanAggregator, lambda voted: voted.mean(axis=0)),
    "baseline-vanilla": ("baseline", CoordinateWiseMedian, CoordinateWiseMedian()),
}


def simulate_round(assignment, attack, selector, seed=11):
    cluster = build_cluster(
        assignment, FileOracle(gradient_fn, DIM), attack=attack, selector=selector, seed=seed
    )
    data = make_file_data(assignment.num_files, seed=seed)
    return cluster.run_round_tensor(np.linspace(-1.0, 1.0, DIM), data, iteration=2)


def reference_winners(tensor):
    """Per-file reference vote over the materialized ``(f, r, d)`` copies."""
    return reference_vote(cube_of(tensor))[0]


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
        selection, counts, _, _ = majority_vote_votetensor(tensor_of(values))
        ref_w, ref_c = reference_vote(values)
        assert np.array_equal(selection.densified(), ref_w), trial
        assert counts.tolist() == ref_c.tolist(), trial


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
        selection, counts, _, _ = majority_vote_votetensor(tensor_of(values))
        ref_w, ref_c = reference_vote(values)
        assert np.array_equal(selection.densified(), ref_w)
        assert counts.tolist() == ref_c.tolist()


def test_kernel_byte_equality_semantics():
    """NaN payloads with equal bits count as equal; -0.0 and +0.0 do not."""
    values = np.zeros((1, 3, 2))
    values[0, 0] = np.nan
    values[0, 1] = np.nan
    values[0, 2] = 1.0
    winners, counts, _, _ = majority_vote_votetensor(tensor_of(values))
    assert counts[0] == 2 and np.isnan(winners.densified()[0]).all()

    values = np.zeros((1, 3, 1))
    values[0, 0] = -0.0
    values[0, 1] = 0.0
    values[0, 2] = -0.0
    winners, counts, _, _ = majority_vote_votetensor(tensor_of(values))
    assert counts[0] == 2 and np.signbit(winners.densified()[0, 0])


# --------------------------------------------------------------------------- #
# One round, all schemes x registered attacks: pipelines vs the reference vote
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("case", sorted(PIPELINES))
@pytest.mark.parametrize("attack_name", available_attacks())
def test_round_and_aggregates_identical(case, attack_name):
    scheme, rule, reference_rule = PIPELINES[case]
    assignment = SCHEMES[scheme]()
    attack = create_attack(attack_name)
    selector = FixedSelector([0, min(5, assignment.num_workers - 1)])
    result = simulate_round(assignment, attack, selector)
    tensor = result.vote_tensor

    # honest slots carry the ground truth, Byzantine slots something else
    cube = cube_of(tensor)
    replicated = np.repeat(result.honest_matrix[:, None, :], cube.shape[1], axis=1)
    honest_slots = ~tensor.byzantine_mask
    assert np.array_equal(cube[honest_slots], replicated[honest_slots])
    assert not np.array_equal(cube, replicated)

    # at r = 1 (the baseline) every file is decided by its one copy, so the
    # reference winners are the workers' raw returns
    expected = reference_rule(reference_winners(tensor))
    pipeline = AggregationPipeline(assignment, rule())
    assert np.array_equal(pipeline.aggregate_tensor(tensor).aggregate, expected)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_round_identical_under_random_selection(scheme):
    """Stochastic selector + stochastic attack: the round is a pure function
    of (seed, iteration) — two independently built clusters agree bit for bit."""
    assignment = SCHEMES[scheme]()

    def cube(seed):
        result = simulate_round(
            assignment,
            create_attack("gaussian_noise", sigma=3.0),
            ScheduledSelector(ScheduleSpec(q=2), selection="random"),
            seed=seed,
        )
        return result.byzantine_workers, cube_of(result.vote_tensor)

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
    pipeline = AggregationPipeline(mols_assignment)
    wrong = VoteTensor.from_honest(
        frc_15_3.assignment,
        np.zeros((frc_15_3.assignment.num_files, DIM)),
    )
    from repro.exceptions import AggregationError

    with pytest.raises(AggregationError):
        pipeline.aggregate_tensor(wrong)
