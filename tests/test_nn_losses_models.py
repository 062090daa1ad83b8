"""Tests for losses, the Sequential container and model builders."""

import tracemalloc

import numpy as np
import pytest

from repro.data.batching import RoundFiles
from repro.exceptions import ConfigurationError
from repro.nn.layers import Dense, ReLU
from repro.nn.losses import SoftmaxCrossEntropy, softmax
from repro.nn.models import Sequential, build_mlp

from reference_gradient import RELU, looped_gradients


# --------------------------------------------------------------------------- #
# Losses
# --------------------------------------------------------------------------- #
def test_softmax_rows_sum_to_one():
    logits = np.random.default_rng(0).standard_normal((5, 7)) * 10
    probs = softmax(logits)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert np.all(probs > 0)


def test_softmax_is_shift_invariant():
    logits = np.array([[1.0, 2.0, 3.0]])
    assert np.allclose(softmax(logits), softmax(logits + 100.0))


def test_cross_entropy_perfect_prediction_is_near_zero():
    logits = np.array([[100.0, 0.0], [0.0, 100.0]])
    labels = np.array([0, 1])
    assert SoftmaxCrossEntropy().value(logits, labels) < 1e-6


def test_cross_entropy_uniform_prediction():
    logits = np.zeros((4, 10))
    labels = np.array([0, 3, 5, 9])
    assert SoftmaxCrossEntropy().value(logits, labels) == pytest.approx(np.log(10), abs=1e-9)


def test_cross_entropy_gradient_matches_numerical():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((4, 5))
    labels = rng.integers(0, 5, size=4)
    loss = SoftmaxCrossEntropy()
    analytic = loss.per_file_value_and_gradient(logits[None].copy(), labels[None])[1][0]
    numeric = np.zeros_like(logits)
    epsilon = 1e-6
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            plus = logits.copy()
            plus[i, j] += epsilon
            minus = logits.copy()
            minus[i, j] -= epsilon
            numeric[i, j] = (loss.value(plus, labels) - loss.value(minus, labels)) / (
                2 * epsilon
            )
    assert np.allclose(analytic, numeric, atol=1e-6)


def test_cross_entropy_validation():
    loss = SoftmaxCrossEntropy()
    with pytest.raises(ConfigurationError):
        loss.value(np.zeros(3), np.zeros(3, dtype=int))
    with pytest.raises(ConfigurationError):
        loss.value(np.zeros((2, 3)), np.array([0]))
    with pytest.raises(ConfigurationError):
        loss.value(np.zeros((2, 3)), np.array([0, 5]))


# --------------------------------------------------------------------------- #
# Sequential container
# --------------------------------------------------------------------------- #
def make_tiny_model(seed=0):
    return Sequential([Dense(4, 8, rng=seed), ReLU(), Dense(8, 3, rng=seed + 1)], name="tiny")


def test_sequential_forward_shape():
    model = make_tiny_model()
    out = model.forward(np.ones((5, 4)))
    assert out.shape == (5, 3)
    assert model.forward(np.ones((2, 4))).shape == (2, 3)


def test_sequential_requires_layers():
    with pytest.raises(ConfigurationError):
        Sequential([])


def test_flat_params_roundtrip():
    model = make_tiny_model()
    flat = model.get_flat_params()
    assert flat.size == model.num_parameters() == 4 * 8 + 8 + 8 * 3 + 3
    new = np.arange(flat.size, dtype=np.float64)
    model.set_flat_params(new)
    assert np.allclose(model.get_flat_params(), new)
    with pytest.raises(ConfigurationError):
        model.set_flat_params(np.zeros(3))


def traced_bytes(fn):
    """Peak traced memory of ``fn()`` above its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_set_flat_params_binds_the_vector():
    """The layers read the bound vector itself: every parameter is a view of
    it, binding allocates nothing of its size, a read-only vector (the PS's
    broadcast) gives read-only parameters, and a vector in another dtype is
    converted once, into the one array every parameter views."""
    model = Sequential([Dense(48, 200, rng=0), ReLU(), Dense(200, 200, rng=1)])
    flat = np.random.default_rng(3).standard_normal(model.num_parameters())
    assert flat.size == 50_000
    model.set_flat_params(flat)  # the first binding drops the initial arrays
    allocated = traced_bytes(lambda: model.set_flat_params(flat))
    assert allocated < 1024, allocated
    assert all(np.shares_memory(array, flat) for array in model.parameter_arrays())
    assert model.get_flat_params().tobytes() == flat.tobytes()

    broadcast = flat.view()
    broadcast.setflags(write=False)
    model.set_flat_params(broadcast)
    for array in model.parameter_arrays():
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
    assert np.array_equal(model.get_flat_params(), flat)

    narrow = build_mlp(48, 200, hidden=(200,), dtype=np.float32)
    allocated = traced_bytes(lambda: narrow.set_flat_params(flat))
    arrays = narrow.parameter_arrays()
    converted = arrays[0].base
    assert converted.dtype == np.float32 and converted.size == flat.size
    assert all(array.dtype == np.float32 and array.base is converted for array in arrays)
    assert flat.size * 4 <= allocated < flat.size * 4 + 1024, allocated
    assert narrow.get_flat_params().tobytes() == flat.astype(np.float32).tobytes()


def one_file_loss_and_gradient(model, x, y):
    """The model's stacked pass on ``(x, y)`` as a round of one file."""
    losses, gradients = model.per_file_loss_and_gradients(
        RoundFiles.coerce((x[None], y[None])), SoftmaxCrossEntropy()
    )
    return losses[0], gradients[0]


def test_loss_and_gradient_shapes():
    model = make_tiny_model()
    x = np.random.default_rng(0).standard_normal((6, 4))
    y = np.random.default_rng(1).integers(0, 3, size=6)
    value, gradient = one_file_loss_and_gradient(model, x, y)
    assert np.isfinite(value)
    assert gradient.shape == (model.num_parameters(),)
    assert np.any(gradient != 0.0)


def test_model_gradient_matches_numerical():
    """The stacked pass's gradient and the reference's (the same bits) are the
    finite differences of the plain forward pass's loss."""
    model = make_tiny_model()
    loss = SoftmaxCrossEntropy()
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 4))
    y = rng.integers(0, 3, size=5)
    _, analytic = one_file_loss_and_gradient(model, x, y)
    params = model.get_flat_params()
    reference = looped_gradients([(4, 8), RELU, (8, 3)], params, [(x, y)])[0]
    assert reference.tobytes() == analytic.tobytes()
    numeric = np.zeros_like(params)
    epsilon = 1e-6
    for idx in range(0, params.size, 7):  # spot-check every 7th parameter
        perturbed = params.copy()
        perturbed[idx] += epsilon
        model.set_flat_params(perturbed)
        plus = loss.value(model.forward(x), y)
        perturbed[idx] -= 2 * epsilon
        model.set_flat_params(perturbed)
        minus = loss.value(model.forward(x), y)
        numeric[idx] = (plus - minus) / (2 * epsilon)
    model.set_flat_params(params)
    mask = np.arange(params.size) % 7 == 0
    assert np.allclose(analytic[mask], numeric[mask], atol=1e-5)


def test_layers_hold_no_gradient_state():
    """The stacked pass writes every gradient into its caller's workspace:
    a layer has no gradient arrays, before or after a pass, and two passes
    on one model give what a fresh model gives, bit for bit."""
    model = make_tiny_model()
    rng = np.random.default_rng(6)
    for _ in range(2):
        x, y = rng.standard_normal((5, 4)), rng.integers(0, 3, size=5)
        value, gradient = one_file_loss_and_gradient(model, x, y)
        expected_value, expected = one_file_loss_and_gradient(make_tiny_model(), x, y)
        assert value == expected_value and gradient.tobytes() == expected.tobytes()
    assert all(not hasattr(layer, "grads") for layer in model.layers)


# --------------------------------------------------------------------------- #
# Builders
# --------------------------------------------------------------------------- #
def test_build_mlp_structure_and_determinism():
    a = build_mlp(10, 3, hidden=(8, 4), seed=5)
    b = build_mlp(10, 3, hidden=(8, 4), seed=5)
    c = build_mlp(10, 3, hidden=(8, 4), seed=6)
    assert a.forward(np.ones((1, 10))).shape == (1, 3)
    assert np.allclose(a.get_flat_params(), b.get_flat_params())
    assert not np.allclose(a.get_flat_params(), c.get_flat_params())


def test_build_mlp_is_dense_relu_stacks():
    """The one model family every scenario builds: Dense/ReLU pairs and a linear head."""
    model = build_mlp(6, 2, hidden=(5, 4), seed=0)
    assert [type(layer).__name__ for layer in model.layers] == [
        "Dense", "ReLU", "Dense", "ReLU", "Dense",
    ]
    with pytest.raises(TypeError):
        build_mlp(6, 2, hidden=(5,), seed=0, batch_norm=True)
