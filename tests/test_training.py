"""Tests for the training harness: config, history, gradient computer, trainer."""

import numpy as np
import pytest

from repro.exceptions import AggregationError, ConfigurationError, TrainingError
from repro.nn.models import build_mlp
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ScenarioSpec
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
# Trainers, built the one way: spec -> ScenarioRunner.build_trainer()
# --------------------------------------------------------------------------- #
_MOLS = {"scheme": "mols", "params": {"load": 5, "replication": 3}}
_FRC = {"scheme": "frc", "params": {"num_workers": 15, "replication": 3}}
_BASELINE = {"scheme": "baseline", "params": {"num_workers": 15}}


def _trainer(cluster=_MOLS, kind="byzshield", attack=None, q=0, batch_size=75):
    """A 4-round trainer on a small Gaussian mixture; ``attack`` is a registry name."""
    document = {
        "name": f"{kind}-{attack}-q{q}",
        "seed": 0,
        "cluster": cluster,
        "pipeline": {"kind": kind, "aggregator": "median"},
        "data": {"kind": "gaussian", "num_train": 450, "num_test": 150,
                 "num_classes": 4, "dim": 12, "separation": 3.0},
        "model": {"hidden": [8]},
        "training": {"batch_size": batch_size, "num_iterations": 4, "eval_every": 2},
    }
    if attack is not None:
        document["attack"] = {"name": attack, "selection": "omniscient",
                              "schedule": {"kind": "static", "q": q}}
    return ScenarioRunner(ScenarioSpec.from_dict(document)).build_trainer()


def test_build_byzshield_trainer_and_train():
    history = _trainer(attack="constant", q=2).train()
    assert len(history) == 4
    assert not np.isnan(history.final_accuracy)
    # With q=2 the omniscient adversary can corrupt exactly one of 25 files.
    assert np.allclose(history.distortion_fractions, 1 / 25)


def test_build_byzshield_trainer_no_attack():
    history = _trainer().train()
    assert np.all(history.distortion_fractions == 0.0)


def test_batch_size_must_divide_files():
    with pytest.raises(ConfigurationError):
        _trainer(batch_size=77)


def test_build_detox_and_vanilla_trainers():
    history = _trainer(_FRC, "detox", attack="reversed_gradient", q=2).train()
    assert len(history) == 4

    history = _trainer(_BASELINE, "vanilla", attack="reversed_gradient", q=2).train()
    # Baseline distortion fraction is q / K.
    assert np.allclose(history.distortion_fractions, 2 / 15)


def test_build_draco_trainer_applicability():
    """DRACO needs r >= 2q+1: r = 3 recovers exactly at q = 1 and refuses q = 2."""
    history = _trainer(_FRC, "draco", attack="constant", q=1).train()
    assert len(history) == 4

    violating = _trainer(_FRC, "draco", attack="constant", q=2)
    with pytest.raises(AggregationError):
        violating.train()


def test_trainer_determinism():
    """Same seed, same scheme, same attack => identical accuracy curves."""
    a = _trainer(attack="constant", q=2).train()
    b = _trainer(attack="constant", q=2).train()
    assert np.array_equal(a.accuracy_series()[1], b.accuracy_series()[1])
    assert np.array_equal(a.train_losses, b.train_losses)
