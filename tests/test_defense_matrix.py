"""Cross-product robustness checks: every attack against every pipeline.

These tests exercise one aggregation round (no training loop) for the full
attack x defense matrix on a small synthetic gradient workload and check the
qualitative robustness properties each combination is supposed to have:

* when the adversary cannot corrupt a majority of the votes feeding the final
  robust rule, the aggregate stays close to the honest aggregate;
* when redundancy neutralizes every corrupted copy (q < r'), the aggregate is
  *exactly* the attack-free one;
* the non-robust mean is pulled arbitrarily far (sanity check that the attacks
  actually do something).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregation.geometric_median import GeometricMedianAggregator
from repro.aggregation.krum import MultiKrumAggregator
from repro.aggregation.mean import MeanAggregator
from repro.aggregation.median import CoordinateWiseMedian
from repro.aggregation.trimmed_mean import TrimmedMeanAggregator
from repro.assignment.mols import MOLSAssignment
from repro.attacks.alie import ALIEAttack
from repro.attacks.base import AttackContext
from repro.attacks.constant import ConstantAttack
from repro.attacks.noise import GaussianNoiseAttack, UniformRandomAttack
from repro.attacks.reversed_gradient import ReversedGradientAttack
from repro.attacks.selection import OmniscientSelector
from repro.core.pipelines import ByzShieldPipeline
from repro.core.vote_tensor import VoteTensor
from repro.utils.rng import as_generator

DIM = 12
ASSIGNMENT = MOLSAssignment(load=5, replication=3).assignment

ATTACKS = {
    "alie": ALIEAttack(),
    "constant": ConstantAttack(value=-25.0),
    "reversed_gradient": ReversedGradientAttack(scale=100.0),
    "gaussian_noise": GaussianNoiseAttack(sigma=50.0),
    "uniform_random": UniformRandomAttack(magnitude=30.0),
}

ROBUST_AGGREGATORS = {
    "median": CoordinateWiseMedian(),
    "trimmed_mean": TrimmedMeanAggregator(trim=3),
    "multi_krum": MultiKrumAggregator(num_byzantine=3),
    "geometric_median": GeometricMedianAggregator(),
}


def honest_gradients(seed: int = 0) -> np.ndarray:
    rng = as_generator(seed)
    base = rng.standard_normal(DIM)
    return base + 0.1 * rng.standard_normal((ASSIGNMENT.num_files, DIM))


def attacked_votes(attack, q: int, seed: int = 0):
    """Honest votes with the worst-case q workers replaced by the attack payloads."""
    honest = honest_gradients(seed)
    selector = OmniscientSelector(num_byzantine=q)
    rng = as_generator(seed + 1)
    byzantine = selector.select(ASSIGNMENT, 0, rng)
    tensor = VoteTensor.from_honest(ASSIGNMENT, honest)
    tensor.mark_byzantine(byzantine)
    context = AttackContext(
        assignment=ASSIGNMENT,
        byzantine_workers=byzantine,
        honest_matrix=honest,
        iteration=0,
        rng=rng,
    )
    attack.apply_tensor(context, tensor)
    return tensor, honest


@pytest.mark.parametrize("attack_name", sorted(ATTACKS))
@pytest.mark.parametrize("aggregator_name", sorted(ROBUST_AGGREGATORS))
def test_byzshield_small_q_exact_recovery(attack_name, aggregator_name):
    """q = 1 < r' = 2: no vote can be corrupted, output equals attack-free output."""
    attack = ATTACKS[attack_name]
    aggregator = ROBUST_AGGREGATORS[aggregator_name]
    votes, honest = attacked_votes(attack, q=1)
    pipeline = ByzShieldPipeline(ASSIGNMENT, aggregator=aggregator)
    attacked = pipeline.aggregate_tensor(votes).aggregate
    clean = pipeline.aggregate_tensor(VoteTensor.from_honest(ASSIGNMENT, honest)).aggregate
    assert np.allclose(attacked, clean)


@pytest.mark.parametrize("attack_name", sorted(ATTACKS))
def test_byzshield_median_stays_near_honest_aggregate_q4(attack_name):
    """q = 4 corrupts 5/25 votes; the median over 25 votes barely moves."""
    attack = ATTACKS[attack_name]
    votes, honest = attacked_votes(attack, q=4)
    pipeline = ByzShieldPipeline(ASSIGNMENT, aggregator=CoordinateWiseMedian())
    attacked = pipeline.aggregate_tensor(votes).aggregate
    honest_median = np.median(honest, axis=0)
    honest_spread = honest.max(axis=0) - honest.min(axis=0)
    # The attacked median stays within the honest votes' own spread.
    assert np.all(np.abs(attacked - honest_median) <= honest_spread + 1e-9)


@pytest.mark.parametrize("attack_name", ["constant", "reversed_gradient", "gaussian_noise"])
def test_mean_is_broken_by_every_large_magnitude_attack(attack_name):
    """Sanity: the same corrupted votes destroy a plain mean aggregate."""
    attack = ATTACKS[attack_name]
    votes, honest = attacked_votes(attack, q=4)
    pipeline = ByzShieldPipeline(ASSIGNMENT, aggregator=MeanAggregator())
    attacked = pipeline.aggregate_tensor(votes).aggregate
    honest_mean = honest.mean(axis=0)
    # Large-magnitude attacks shift the mean by much more than the honest spread.
    assert np.linalg.norm(attacked - honest_mean) > 1.0


@pytest.mark.parametrize("attack_name", sorted(ATTACKS))
def test_corrupted_vote_count_matches_static_analysis(attack_name):
    """The number of votes differing from the honest gradient equals c_max."""
    attack = ATTACKS[attack_name]
    votes, honest = attacked_votes(attack, q=4)
    pipeline = ByzShieldPipeline(ASSIGNMENT)
    voted = pipeline.aggregate_tensor(votes).winners.densified()
    corrupted = sum(
        0 if np.allclose(voted[i], honest[i]) else 1
        for i in range(ASSIGNMENT.num_files)
    )
    # c_max for q=4 on MOLS(5,3) is 5 (paper Table 3).  Colluding attacks send
    # identical payloads, so they corrupt exactly c_max votes; non-colluding
    # noise attacks send a different payload per copy, their copies do not
    # agree with each other and the exact-equality majority can fall back to
    # the honest copy — they can never corrupt more than c_max.
    if attack_name in ("alie", "constant", "reversed_gradient"):
        assert corrupted == 5
    else:
        assert corrupted <= 5
