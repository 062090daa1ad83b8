"""End-to-end integration tests tying the whole system together."""

import numpy as np
import pytest

from repro.aggregation.median import CoordinateWiseMedian
from repro.assignment.mols import MOLSAssignment
from repro.attacks.alie import ALIEAttack
from repro.attacks.constant import ConstantAttack
from repro.attacks.reversed_gradient import ReversedGradientAttack
from repro.core.distortion import max_distortion
from repro.assignment.baseline import BaselineAssignment
from repro.core.pipelines import AggregationPipeline
from repro.data.datasets import train_test_split
from repro.data.synthetic import make_gaussian_mixture
from repro.nn.models import build_mlp
from repro.scenarios.spec import TrainingSpec


@pytest.fixture(scope="module")
def data():
    dataset = make_gaussian_mixture(
        num_samples=800, num_classes=4, dim=16, separation=3.0, seed=42
    )
    return train_test_split(dataset, test_fraction=0.25, seed=43)


def make_config(iterations=25, batch=150):
    return TrainingSpec(
        batch_size=batch,
        num_iterations=iterations,
        learning_rate=0.1,
        lr_decay=0.96,
        lr_period=15,
        momentum=0.9,
        eval_every=5,
    )


def byzshield_trainer(assemble, data, attack=None, q=0, iterations=25, aggregator=None):
    """ByzShield on MOLS (l=5, r=3) over this module's own dataset."""
    train, test = data
    return assemble(
        AggregationPipeline(
            MOLSAssignment(load=5, replication=3).assignment,
            aggregator=aggregator or CoordinateWiseMedian(),
        ),
        build_mlp(train.flat_feature_dim, train.num_classes, hidden=(24,), seed=0),
        train,
        test,
        make_config(iterations=iterations),
        attack=attack,
        q=q,
    )


def run_rounds(trainer):
    """Step an object-built trainer through its configured iterations."""
    return [trainer.run_iteration(t) for t in range(trainer.config.num_iterations)]


def test_clean_training_learns(data, assemble_trainer):
    """Without any attack the distributed trainer reaches high accuracy."""
    trainer = byzshield_trainer(assemble_trainer, data, iterations=30)
    records = run_rounds(trainer)
    assert trainer.evaluate()["accuracy"] > 0.85
    assert records[-1].train_loss < records[0].train_loss


def test_byzshield_attack_free_equivalence_small_q(data, assemble_trainer):
    """With q < r' the ByzShield output is bit-identical to attack-free training."""
    clean = byzshield_trainer(assemble_trainer, data, iterations=10)
    attacked = byzshield_trainer(
        assemble_trainer, data, attack=ReversedGradientAttack(scale=1000.0), q=1, iterations=10
    )
    clean_records, attacked_records = run_rounds(clean), run_rounds(attacked)
    assert np.array_equal(clean.server.params, attacked.server.params)
    assert [r.train_loss for r in clean_records] == [r.train_loss for r in attacked_records]
    assert all(r.distortion_fraction == 0.0 for r in attacked_records)


def test_byzshield_beats_vanilla_median_under_constant_attack(data, assemble_trainer):
    """Under the omniscient constant attack with a large q, ByzShield retains
    far more accuracy than the plain coordinate-wise median baseline."""
    train, test = data
    q = 6
    attacked_byz = byzshield_trainer(
        assemble_trainer, data, attack=ConstantAttack(value=-5.0), q=q, iterations=30
    )

    vanilla = assemble_trainer(
        AggregationPipeline(BaselineAssignment(15).assignment, aggregator=CoordinateWiseMedian()),
        build_mlp(train.flat_feature_dim, train.num_classes, hidden=(24,), seed=0),
        train,
        test,
        make_config(iterations=30),
        attack=ConstantAttack(value=-5.0),
        q=q,
    )
    run_rounds(attacked_byz)
    run_rounds(vanilla)
    # ByzShield corrupts 12/25 = 48% of votes at q=6 but the *baseline* has
    # 6/15 = 40% of its gradients corrupted with no redundancy to fix them;
    # the headline expectation is simply that ByzShield stays usable.
    byzshield_accuracy = attacked_byz.evaluate()["accuracy"]
    assert byzshield_accuracy > 0.7
    assert byzshield_accuracy >= vanilla.evaluate()["accuracy"] - 0.05


def test_realized_distortion_matches_static_analysis(data, assemble_trainer):
    """The distortion fraction observed during training equals the analytic
    worst case for the chosen (assignment, q)."""
    q = 3
    trainer = byzshield_trainer(assemble_trainer, data, attack=ALIEAttack(), q=q, iterations=5)
    records = run_rounds(trainer)
    predicted = max_distortion(MOLSAssignment(load=5, replication=3).assignment, q).epsilon
    assert np.allclose([r.distortion_fraction for r in records], predicted)


def test_different_aggregators_all_train(data, assemble_trainer):
    """ByzShield composes with non-default post-vote aggregators (conclusion remark)."""
    from repro.aggregation.krum import MultiKrumAggregator
    from repro.aggregation.trimmed_mean import TrimmedMeanAggregator

    for aggregator in (TrimmedMeanAggregator(trim=2), MultiKrumAggregator(num_byzantine=2)):
        trainer = byzshield_trainer(
            assemble_trainer, data, attack=ReversedGradientAttack(), q=3, iterations=8, aggregator=aggregator
        )
        assert len(run_rounds(trainer)) == 8
        assert not np.isnan(trainer.evaluate()["accuracy"])
