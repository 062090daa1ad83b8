"""Tests for the training harness: the schedule's checks, the run record's
float views, gradient computer, trainer."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ReproError, TrainingError
from repro.nn.models import build_mlp
from repro.scenarios.catalog import get_scenario
from repro.scenarios.runner import ScenarioResult, ScenarioRunner
from repro.scenarios.spec import ScenarioSpec, TrainingSpec
from repro.scenarios.trace import EvaluationTrace, RoundTrace, RunTrace, hex_float
from repro.training.gradients import ModelGradientComputer


# --------------------------------------------------------------------------- #
# The training schedule
# --------------------------------------------------------------------------- #
def test_config_defaults_valid():
    config = TrainingSpec()
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
        {"eval_every": 0},
        # NaN fails every comparison, so ``x <= 0`` style checks let it through
        {"learning_rate": float("nan")},
        {"lr_decay": float("nan")},
        {"momentum": float("nan")},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        TrainingSpec(**kwargs)


# --------------------------------------------------------------------------- #
# The run record's float views
# --------------------------------------------------------------------------- #
def _round(iteration, loss, num_distorted=0):
    return RoundTrace(
        iteration=iteration, q=0, byzantine=(), num_distorted=num_distorted,
        votes_digest="", winners_digest="", aggregate_digest="", params_digest="",
        mean_loss_hex=hex_float(loss),
    )


def _evaluation(iteration, accuracy, loss):
    return EvaluationTrace(
        iteration=iteration, test_loss_hex=hex_float(loss), test_accuracy_hex=hex_float(accuracy)
    )


def test_trace_series_and_summary():
    trace = RunTrace(
        scenario="test",
        spec_digest="",
        rounds=[_round(0, 1.0, 1), _round(1, 0.8, 1), _round(2, 0.6, 2)],
        evaluations=[_evaluation(1, 0.5, 1.2), _evaluation(2, 0.7, 1.0)],
        final_accuracy_hex=hex_float(0.7),
    )
    iterations, accuracies = trace.accuracy_series()
    assert list(iterations) == [1, 2]
    assert list(accuracies) == [0.5, 0.7]
    assert trace.final_accuracy == 0.7
    assert trace.best_accuracy == 0.7
    assert trace.mean_accuracy() == pytest.approx(0.6)
    assert np.array_equal(trace.train_losses, [1.0, 0.8, 0.6])
    result = ScenarioResult(spec=get_scenario("mols-clean"), trace=trace, num_files=10)
    assert np.array_equal(result.predicted_distortion, [0.1, 0.1, 0.2])
    summary = result.summary()
    assert summary["rounds"] == 3
    assert summary["final_accuracy"] == 0.7
    assert summary["mean_predicted_distortion"] == pytest.approx(0.4 / 3)


def test_trace_without_evaluations():
    trace = RunTrace(scenario="test", spec_digest="", rounds=[_round(0, 1.0)])
    iterations, accuracies = trace.accuracy_series()
    assert iterations.size == accuracies.size == 0
    assert np.isnan(trace.final_accuracy)
    assert np.isnan(trace.best_accuracy)
    assert np.isnan(trace.mean_accuracy())
    empty = ScenarioResult(
        spec=get_scenario("mols-clean"), trace=RunTrace(scenario="test", spec_digest=""), num_files=10
    )
    assert empty.trace.train_losses.size == empty.predicted_distortion.size == 0
    assert empty.summary()["rounds"] == 0
    assert empty.summary()["mean_predicted_distortion"] == 0.0


def test_trace_rejects_out_of_order_rounds():
    trace = RunTrace(scenario="test", spec_digest="")
    trace.append(_round(3, 1.0))
    with pytest.raises(ReproError):
        trace.append(_round(3, 1.0))


# --------------------------------------------------------------------------- #
# Gradient computer
# --------------------------------------------------------------------------- #
def test_gradient_computer(small_classification_data):
    train, _ = small_classification_data
    model = build_mlp(train.flat_feature_dim, train.num_classes, hidden=(8,), seed=0)
    computer = ModelGradientComputer(model)
    params = computer.initial_params()
    gradients, losses = computer.batched(params, (train.inputs[None, :16], train.labels[None, :16]))
    assert gradients.shape == (1, computer.dim)
    assert np.all(np.isfinite(losses))
    with pytest.raises(TrainingError, match="empty file"):
        computer.batched(params, (train.inputs[None, :0], train.labels[None, :0]))


# --------------------------------------------------------------------------- #
# Runs, built the one way: spec -> ScenarioRunner
# --------------------------------------------------------------------------- #
_MOLS = {"scheme": "mols", "params": {"load": 5, "replication": 3}}
_FRC = {"scheme": "frc", "params": {"num_workers": 15, "replication": 3}}
_BASELINE = {"scheme": "baseline", "params": {"num_workers": 15}}


def _runner(cluster=_MOLS, kind="byzshield", attack=None, q=0, batch_size=75):
    """A 4-round run on a small Gaussian mixture; ``attack`` is a registry name."""
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
    return ScenarioRunner(ScenarioSpec.from_dict(document))


def test_build_byzshield_trainer_and_train():
    result = _runner(attack="constant", q=2).run()
    assert len(result.trace.rounds) == 4
    assert not np.isnan(result.trace.final_accuracy)
    # With q=2 the omniscient adversary can corrupt exactly one of 25 files.
    assert np.allclose(result.predicted_distortion, 1 / 25)


def test_build_byzshield_trainer_no_attack():
    result = _runner().run()
    assert np.all(result.predicted_distortion == 0.0)


def test_batch_size_must_divide_files():
    with pytest.raises(ConfigurationError):
        _runner(batch_size=77).build_trainer()


def test_build_detox_and_vanilla_trainers():
    result = _runner(_FRC, "detox", attack="reversed_gradient", q=2).run()
    assert len(result.trace.rounds) == 4

    result = _runner(_BASELINE, "vanilla", attack="reversed_gradient", q=2).run()
    # Baseline distortion fraction is q / K.
    assert np.allclose(result.predicted_distortion, 2 / 15)


def test_build_draco_trainer_applicability():
    """DRACO needs r >= 2q+1: r = 3 recovers exactly at q = 1 and refuses q = 2."""
    result = _runner(_FRC, "draco", attack="constant", q=1).run()
    assert len(result.trace.rounds) == 4

    violating = _runner(_FRC, "draco", attack="constant", q=2)
    with pytest.raises(ConfigurationError, match=r"DRACO requires r >= 2q\+1, but r=3 .* q=2"):
        violating.build_trainer()


def test_trainer_determinism():
    """Same seed, same scheme, same attack => identical accuracy curves."""
    a = _runner(attack="constant", q=2).run().trace
    b = _runner(attack="constant", q=2).run().trace
    assert np.array_equal(a.accuracy_series()[1], b.accuracy_series()[1])
    assert np.array_equal(a.train_losses, b.train_losses)
