"""Tests for the SGD optimizer, learning-rate schedules and metrics."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.metrics import cross_entropy_loss, evaluate_model, top1_accuracy
from repro.nn.models import build_mlp
from repro.nn.optim import SGD, ConstantSchedule, StepDecaySchedule


# --------------------------------------------------------------------------- #
# Schedules
# --------------------------------------------------------------------------- #
def test_constant_schedule():
    schedule = ConstantSchedule(0.1)
    assert schedule.rate(0) == 0.1
    assert schedule.rate(1000) == 0.1
    with pytest.raises(ConfigurationError):
        ConstantSchedule(0.0)


def test_step_decay_schedule_matches_paper_notation():
    # (x, y, z) = (0.05, 0.96, 15): start at 0.05, multiply by 0.96 every 15 iters.
    schedule = StepDecaySchedule(0.05, 0.96, 15)
    assert schedule.rate(0) == pytest.approx(0.05)
    assert schedule.rate(14) == pytest.approx(0.05)
    assert schedule.rate(15) == pytest.approx(0.05 * 0.96)
    assert schedule.rate(45) == pytest.approx(0.05 * 0.96**3)


def test_step_decay_validation():
    with pytest.raises(ConfigurationError):
        StepDecaySchedule(0.0, 0.9, 10)
    with pytest.raises(ConfigurationError):
        StepDecaySchedule(0.1, -1.0, 10)
    with pytest.raises(ConfigurationError):
        StepDecaySchedule(0.1, 0.9, 0)
    with pytest.raises(ConfigurationError):
        StepDecaySchedule(0.1, 0.9, 10).rate(-1)


# --------------------------------------------------------------------------- #
# SGD
# --------------------------------------------------------------------------- #
def test_sgd_plain_step():
    optimizer = SGD(0.1)
    params = np.array([1.0, -2.0])
    gradient = np.array([1.0, 1.0])
    updated = optimizer.step_vector(params, gradient)
    assert np.allclose(updated, [0.9, -2.1])
    assert optimizer.iteration == 1


def test_sgd_momentum_accumulates():
    optimizer = SGD(0.1, momentum=0.9)
    params = np.zeros(1)
    gradient = np.ones(1)
    first = optimizer.step_vector(params, gradient)
    second = optimizer.step_vector(first, gradient)
    assert first[0] == pytest.approx(-0.1)
    # velocity = 0.9*1 + 1 = 1.9 => step 0.19
    assert second[0] == pytest.approx(-0.29)


def test_sgd_weight_decay():
    optimizer = SGD(0.1, weight_decay=0.5)
    updated = optimizer.step_vector(np.array([2.0]), np.array([0.0]))
    assert updated[0] == pytest.approx(2.0 - 0.1 * 1.0)


def test_sgd_schedule_is_followed():
    optimizer = SGD(StepDecaySchedule(1.0, 0.5, 1))
    params = np.zeros(1)
    params = optimizer.step_vector(params, np.ones(1))  # lr 1.0
    params = optimizer.step_vector(params, np.ones(1))  # lr 0.5
    assert params[0] == pytest.approx(-1.5)


def test_sgd_validation():
    with pytest.raises(ConfigurationError):
        SGD(0.1, momentum=1.5)
    with pytest.raises(ConfigurationError):
        SGD(0.1, weight_decay=-1.0)
    with pytest.raises(ConfigurationError):
        SGD(0.1).step_vector(np.zeros(3), np.zeros(2))


def test_sgd_steps_reduce_loss():
    model = build_mlp(8, 3, hidden=(16,), seed=0)
    loss = SoftmaxCrossEntropy()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 8))
    y = rng.integers(0, 3, size=64)
    optimizer = SGD(0.5, momentum=0.9)
    initial, _ = model.loss_and_gradient(x, y, loss)
    for _ in range(30):
        value, gradient = model.loss_and_gradient(x, y, loss)
        model.set_flat_params(optimizer.step_vector(model.get_flat_params(), gradient))
    final, _ = model.loss_and_gradient(x, y, loss)
    assert final < initial * 0.7


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def test_top1_accuracy():
    logits = np.array([[1.0, 5.0], [2.0, 0.0], [0.0, 3.0], [4.0, 1.0]])
    labels = np.array([1, 0, 0, 0])
    assert top1_accuracy(logits, labels) == pytest.approx(0.75)
    with pytest.raises(ConfigurationError):
        top1_accuracy(logits, labels[:2])


def test_cross_entropy_loss_metric_matches_loss_class():
    logits = np.random.default_rng(0).standard_normal((6, 4))
    labels = np.random.default_rng(1).integers(0, 4, size=6)
    assert cross_entropy_loss(logits, labels) == pytest.approx(
        SoftmaxCrossEntropy().value(logits, labels)
    )


def test_evaluate_model_batches(small_classification_data):
    train, test = small_classification_data
    model = build_mlp(train.flat_feature_dim, train.num_classes, hidden=(16,), seed=0)
    metrics = evaluate_model(model, test.inputs, test.labels, batch_size=32)
    assert 0.0 <= metrics["accuracy"] <= 1.0
    assert metrics["loss"] > 0.0
    with pytest.raises(ConfigurationError):
        evaluate_model(model, test.inputs[:0], test.labels[:0])
