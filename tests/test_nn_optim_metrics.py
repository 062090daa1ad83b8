"""Tests for the SGD optimizer, the learning-rate schedule and metrics."""

import tracemalloc

import numpy as np
import pytest

import repro.nn.metrics as metrics_module
from repro.exceptions import ConfigurationError
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.metrics import cross_entropy_loss, evaluate_model, top1_accuracy
from repro.nn.models import build_mlp
from repro.nn.optim import SGD, StepDecaySchedule


# --------------------------------------------------------------------------- #
# Schedule
# --------------------------------------------------------------------------- #
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
    optimizer = SGD(StepDecaySchedule(0.1, 1.0, 1))
    params = np.array([1.0, -2.0])
    gradient = np.array([1.0, 1.0])
    updated = optimizer.step_vector(params, gradient)
    assert np.allclose(updated, [0.9, -2.1])
    assert optimizer.iteration == 1


def test_sgd_momentum_accumulates():
    optimizer = SGD(StepDecaySchedule(0.1, 1.0, 1), momentum=0.9)
    params = np.zeros(1)
    gradient = np.ones(1)
    first = optimizer.step_vector(params, gradient)
    second = optimizer.step_vector(first, gradient)
    assert first[0] == pytest.approx(-0.1)
    # velocity = 0.9*1 + 1 = 1.9 => step 0.19
    assert second[0] == pytest.approx(-0.29)


def test_sgd_schedule_is_followed():
    optimizer = SGD(StepDecaySchedule(1.0, 0.5, 1))
    params = np.zeros(1)
    params = optimizer.step_vector(params, np.ones(1))  # lr 1.0
    params = optimizer.step_vector(params, np.ones(1))  # lr 0.5
    assert params[0] == pytest.approx(-1.5)


def reference_step(optimizer, params, gradient):
    """The step as one expression, each operation its own temporary."""
    if optimizer.momentum:
        if optimizer._velocity is None or optimizer._velocity.shape != params.shape:
            optimizer._velocity = np.zeros_like(params)
        optimizer._velocity = optimizer.momentum * optimizer._velocity + gradient
        gradient = optimizer._velocity
    rate = optimizer.schedule.rate(optimizer.iteration)
    optimizer.iteration += 1
    return params - rate * gradient


@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize(
    "dtypes",
    [
        # (params, gradient) per step: one dtype, then every switch between steps
        ((np.float32, np.float32),) * 3,
        ((np.float64, np.float64),) * 3,
        ((np.float32, np.float64), (np.float64, np.float32), (np.float32, np.float32)),
        ((np.float64, np.float64), (np.float32, np.float32), (np.float32, np.float64)),
    ],
)
def test_sgd_step_is_the_expression_bit_for_bit(dtypes, momentum):
    """One new buffer and an in-place velocity give the expression's bits, its
    dtype and its velocity, and never write the caller's parameters."""
    schedule = StepDecaySchedule(0.137, 0.5, 2)
    optimizer = SGD(schedule, momentum=momentum)
    reference = SGD(schedule, momentum=momentum)
    rng = np.random.default_rng(3)
    params = rng.standard_normal(101)
    for param_dtype, gradient_dtype in dtypes:
        params = params.astype(param_dtype)
        gradient = rng.standard_normal(101).astype(gradient_dtype)
        before = params.tobytes()
        updated = optimizer.step_vector(params, gradient)
        expected = reference_step(reference, params.copy(), gradient)
        assert params.tobytes() == before
        assert not np.shares_memory(updated, params)
        assert updated.dtype == expected.dtype and updated.tobytes() == expected.tobytes()
        if momentum:
            assert optimizer._velocity.dtype == reference._velocity.dtype
            assert optimizer._velocity.tobytes() == reference._velocity.tobytes()
        params = updated


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sgd_step_allocates_one_parameter_vector(dtype):
    """Momentum on: the step's peak is its result, one parameter-sized vector
    (measured 1.001), not one temporary per operation of the expression."""
    optimizer = SGD(StepDecaySchedule(0.1, 1.0, 1), momentum=0.9)
    rng = np.random.default_rng(0)
    params, gradient = rng.standard_normal((2, 100_000)).astype(dtype)
    params = optimizer.step_vector(params, gradient)  # the velocity exists from here on
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        updated = optimizer.step_vector(params, gradient)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert updated.nbytes <= peak < updated.nbytes + 4096


def test_sgd_validation():
    with pytest.raises(ConfigurationError):
        SGD(StepDecaySchedule(0.1, 1.0, 1), momentum=1.5)
    with pytest.raises(ConfigurationError):
        SGD(StepDecaySchedule(0.1, 1.0, 1)).step_vector(np.zeros(3), np.zeros(2))


def test_sgd_steps_reduce_loss():
    model = build_mlp(8, 3, hidden=(16,), seed=0)
    loss = SoftmaxCrossEntropy()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 8))
    y = rng.integers(0, 3, size=64)
    optimizer = SGD(StepDecaySchedule(0.5, 1.0, 1), momentum=0.9)
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


def test_evaluate_model_batches(small_classification_data, monkeypatch):
    """150 test samples in batches of 32 (the last one short) score what one
    pass over all of them does."""
    train, test = small_classification_data
    model = build_mlp(train.flat_feature_dim, train.num_classes, hidden=(16,), seed=0)
    whole = evaluate_model(model, test.inputs, test.labels)
    monkeypatch.setattr(metrics_module, "_EVAL_BATCH", 32)
    metrics = evaluate_model(model, test.inputs, test.labels)
    assert 0.0 <= metrics["accuracy"] <= 1.0
    assert metrics["loss"] > 0.0
    assert metrics["accuracy"] == pytest.approx(whole["accuracy"])
    assert metrics["loss"] == pytest.approx(whole["loss"])
    with pytest.raises(ConfigurationError):
        evaluate_model(model, test.inputs[:0], test.labels[:0])
