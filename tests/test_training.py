"""Tests for the training harness: config, history, gradient computer, trainer, builders."""

import numpy as np
import pytest

from repro.aggregation.median import CoordinateWiseMedian
from repro.assignment.mols import MOLSAssignment
from repro.attacks.constant import ConstantAttack
from repro.attacks.reversed_gradient import ReversedGradientAttack
from repro.exceptions import ConfigurationError, TrainingError
from repro.nn.models import build_mlp
from repro.training.builders import (
    build_byzshield_trainer,
    build_detox_trainer,
    build_draco_trainer,
    build_vanilla_trainer,
    make_selector,
)
from repro.training.config import TrainingConfig
from repro.training.gradients import ModelGradientComputer
from repro.training.history import IterationRecord, TrainingHistory


# --------------------------------------------------------------------------- #
# Config
# --------------------------------------------------------------------------- #
def test_config_defaults_valid():
    config = TrainingConfig()
    assert config.batch_size > 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"batch_size": 0},
        {"num_iterations": 0},
        {"learning_rate": 0.0},
        {"lr_decay": 0.0},
        {"lr_period": 0},
        {"momentum": 1.0},
        {"weight_decay": -0.1},
        {"eval_every": 0},
        # NaN fails every comparison, so ``x <= 0`` style checks let it through
        {"learning_rate": float("nan")},
        {"lr_decay": float("nan")},
        {"momentum": float("nan")},
        {"weight_decay": float("nan")},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        TrainingConfig(**kwargs)


# --------------------------------------------------------------------------- #
# History
# --------------------------------------------------------------------------- #
def test_history_series_and_summary():
    history = TrainingHistory(label="test")
    history.append(IterationRecord(0, train_loss=1.0, distortion_fraction=0.1))
    history.append(
        IterationRecord(1, train_loss=0.8, distortion_fraction=0.1, test_accuracy=0.5, test_loss=1.2)
    )
    history.append(
        IterationRecord(2, train_loss=0.6, distortion_fraction=0.2, test_accuracy=0.7, test_loss=1.0)
    )
    assert len(history) == 3
    iterations, accuracies = history.accuracy_series()
    assert list(iterations) == [1, 2]
    assert list(accuracies) == [0.5, 0.7]
    assert history.final_accuracy == 0.7
    assert history.best_accuracy == 0.7
    assert history.mean_accuracy() == pytest.approx(0.6)
    assert history.mean_accuracy(last_k=1) == pytest.approx(0.7)
    summary = history.summary()
    assert summary["iterations"] == 3
    assert summary["final_accuracy"] == 0.7
    assert np.allclose(history.train_losses, [1.0, 0.8, 0.6])


def test_history_empty():
    history = TrainingHistory()
    assert np.isnan(history.final_accuracy)
    assert np.isnan(history.mean_accuracy())
    assert history.summary()["iterations"] == 0


def test_history_rejects_out_of_order_records():
    history = TrainingHistory()
    history.append(IterationRecord(3, 1.0, 0.0))
    with pytest.raises(TrainingError):
        history.append(IterationRecord(3, 1.0, 0.0))


# --------------------------------------------------------------------------- #
# Gradient computer
# --------------------------------------------------------------------------- #
def test_gradient_computer(small_classification_data):
    train, _ = small_classification_data
    model = build_mlp(train.flat_feature_dim, train.num_classes, hidden=(8,), seed=0)
    computer = ModelGradientComputer(model)
    params = computer.initial_params()
    gradient, loss = computer(params, train.inputs[:16], train.labels[:16])
    assert gradient.shape == (computer.dim,)
    assert np.isfinite(loss)
    with pytest.raises(TrainingError):
        computer(params, train.inputs[:0], train.labels[:0])


# --------------------------------------------------------------------------- #
# Selectors / builders
# --------------------------------------------------------------------------- #
def test_make_selector():
    assert make_selector("omniscient", 0) is None
    assert make_selector("random", 3) is not None
    assert make_selector("omniscient", 3) is not None
    with pytest.raises(ConfigurationError):
        make_selector("psychic", 3)


def _small_config(num_files_multiple=75):
    return TrainingConfig(
        batch_size=num_files_multiple, num_iterations=4, learning_rate=0.05, eval_every=2, seed=0
    )


def test_build_byzshield_trainer_and_train(small_classification_data):
    train, test = small_classification_data
    model = build_mlp(train.flat_feature_dim, train.num_classes, hidden=(8,), seed=0)
    trainer = build_byzshield_trainer(
        scheme=MOLSAssignment(load=5, replication=3),
        model=model,
        train_dataset=train,
        test_dataset=test,
        config=_small_config(),
        attack=ConstantAttack(),
        num_byzantine=2,
    )
    history = trainer.train()
    assert len(history) == 4
    assert not np.isnan(history.final_accuracy)
    # With q=2 the omniscient adversary can corrupt exactly one of 25 files.
    assert np.allclose(history.distortion_fractions, 1 / 25)


def test_build_byzshield_trainer_no_attack(small_classification_data):
    train, test = small_classification_data
    model = build_mlp(train.flat_feature_dim, train.num_classes, hidden=(8,), seed=0)
    trainer = build_byzshield_trainer(
        scheme=MOLSAssignment(load=5, replication=3),
        model=model,
        train_dataset=train,
        test_dataset=test,
        config=_small_config(),
    )
    history = trainer.train()
    assert np.all(history.distortion_fractions == 0.0)


def test_builder_attack_consistency_checks(small_classification_data):
    train, test = small_classification_data
    model = build_mlp(train.flat_feature_dim, train.num_classes, hidden=(8,), seed=0)
    with pytest.raises(ConfigurationError):
        build_byzshield_trainer(
            scheme=MOLSAssignment(load=5, replication=3),
            model=model,
            train_dataset=train,
            test_dataset=test,
            config=_small_config(),
            attack=ConstantAttack(),
            num_byzantine=0,
        )
    with pytest.raises(ConfigurationError):
        build_vanilla_trainer(
            num_workers=15,
            model=model,
            train_dataset=train,
            test_dataset=test,
            config=_small_config(),
            aggregator=CoordinateWiseMedian(),
            num_byzantine=3,
        )


def test_batch_size_must_divide_files(small_classification_data):
    train, test = small_classification_data
    model = build_mlp(train.flat_feature_dim, train.num_classes, hidden=(8,), seed=0)
    bad_config = TrainingConfig(batch_size=77, num_iterations=2, seed=0)
    with pytest.raises(ConfigurationError):
        build_byzshield_trainer(
            scheme=MOLSAssignment(load=5, replication=3),
            model=model,
            train_dataset=train,
            test_dataset=test,
            config=bad_config,
        )


def test_build_detox_and_vanilla_trainers(small_classification_data):
    train, test = small_classification_data
    config = _small_config()
    model_a = build_mlp(train.flat_feature_dim, train.num_classes, hidden=(8,), seed=0)
    detox = build_detox_trainer(
        num_workers=15,
        replication=3,
        model=model_a,
        train_dataset=train,
        test_dataset=test,
        config=config,
        aggregator=CoordinateWiseMedian(),
        attack=ReversedGradientAttack(),
        num_byzantine=2,
    )
    history = detox.train()
    assert len(history) == 4

    model_b = build_mlp(train.flat_feature_dim, train.num_classes, hidden=(8,), seed=0)
    vanilla = build_vanilla_trainer(
        num_workers=15,
        model=model_b,
        train_dataset=train,
        test_dataset=test,
        config=config,
        aggregator=CoordinateWiseMedian(),
        attack=ReversedGradientAttack(),
        num_byzantine=2,
    )
    history = vanilla.train()
    # Baseline distortion fraction is q / K.
    assert np.allclose(history.distortion_fractions, 2 / 15)


def test_build_draco_trainer_applicability(small_classification_data):
    train, test = small_classification_data
    config = _small_config()
    model = build_mlp(train.flat_feature_dim, train.num_classes, hidden=(8,), seed=0)
    draco = build_draco_trainer(
        num_workers=15,
        replication=3,
        model=model,
        train_dataset=train,
        test_dataset=test,
        config=config,
        attack=ConstantAttack(),
        num_byzantine=1,
    )
    history = draco.train()
    assert len(history) == 4

    model_b = build_mlp(train.flat_feature_dim, train.num_classes, hidden=(8,), seed=0)
    violating = build_draco_trainer(
        num_workers=15,
        replication=3,
        model=model_b,
        train_dataset=train,
        test_dataset=test,
        config=config,
        attack=ConstantAttack(),
        num_byzantine=2,
    )
    from repro.exceptions import AggregationError

    with pytest.raises(AggregationError):
        violating.train()


def test_trainer_determinism(small_classification_data):
    """Same seed, same scheme, same attack => identical accuracy curves."""
    train, test = small_classification_data

    def run():
        model = build_mlp(train.flat_feature_dim, train.num_classes, hidden=(8,), seed=0)
        trainer = build_byzshield_trainer(
            scheme=MOLSAssignment(load=5, replication=3),
            model=model,
            train_dataset=train,
            test_dataset=test,
            config=_small_config(),
            attack=ConstantAttack(),
            num_byzantine=2,
        )
        return trainer.train()

    a, b = run(), run()
    assert np.array_equal(a.accuracy_series()[1], b.accuracy_series()[1])
    assert np.array_equal(a.train_losses, b.train_losses)
