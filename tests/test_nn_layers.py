"""Tests for the NN layers, including numerical gradient checks."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.layers import Dense, Layer, ReLU


def numerical_input_gradient(layer, x, epsilon=1e-6):
    """Central-difference gradient of sum(layer(x)) with respect to x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for idx in range(flat.size):
        original = flat[idx]
        flat[idx] = original + epsilon
        plus = layer.forward(x.copy()).sum()
        flat[idx] = original - epsilon
        minus = layer.forward(x.copy()).sum()
        flat[idx] = original
        grad_flat[idx] = (plus - minus) / (2 * epsilon)
    return grad


def analytic_input_gradient(layer, x):
    out = layer.forward(x.copy())
    return layer.backward(np.ones_like(out))


def numerical_param_gradient(layer, x, key, epsilon=1e-6):
    param = layer.params[key]
    grad = np.zeros_like(param)
    flat = param.reshape(-1)
    grad_flat = grad.reshape(-1)
    for idx in range(flat.size):
        original = flat[idx]
        flat[idx] = original + epsilon
        plus = layer.forward(x.copy()).sum()
        flat[idx] = original - epsilon
        minus = layer.forward(x.copy()).sum()
        flat[idx] = original
        grad_flat[idx] = (plus - minus) / (2 * epsilon)
    return grad


# --------------------------------------------------------------------------- #
# Dense
# --------------------------------------------------------------------------- #
def test_dense_forward_shape_and_values():
    layer = Dense(3, 2, rng=0)
    layer.params["W"][...] = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    layer.params["b"][...] = np.array([0.5, -0.5])
    out = layer.forward(np.array([[1.0, 2.0, 3.0]]))
    assert np.allclose(out, [[4.5, 4.5]])


def test_dense_gradients_match_numerical():
    rng = np.random.default_rng(0)
    layer = Dense(4, 3, rng=1)
    x = rng.standard_normal((5, 4))
    analytic = analytic_input_gradient(layer, x)
    numeric = numerical_input_gradient(layer, x)
    assert np.allclose(analytic, numeric, atol=1e-5)
    assert np.allclose(layer.grads["W"], numerical_param_gradient(layer, x, "W"), atol=1e-5)
    assert np.allclose(layer.grads["b"], numerical_param_gradient(layer, x, "b"), atol=1e-5)


def test_dense_input_validation():
    layer = Dense(3, 2, rng=0)
    with pytest.raises(ConfigurationError):
        layer.forward(np.ones((2, 4)))
    with pytest.raises(ConfigurationError):
        Dense(0, 2)
    fresh = Dense(3, 2, rng=0)
    with pytest.raises(ConfigurationError):
        fresh.backward(np.ones((1, 2)))


def test_dense_num_parameters():
    assert Dense(4, 3, rng=0).num_parameters() == 4 * 3 + 3


# --------------------------------------------------------------------------- #
# Activation and the layer contract
# --------------------------------------------------------------------------- #
def test_relu_forward_backward():
    layer = ReLU()
    x = np.array([[-1.0, 2.0], [3.0, -4.0]])
    out = layer.forward(x)
    assert np.allclose(out, [[0.0, 2.0], [3.0, 0.0]])
    grad = layer.backward(np.ones_like(x))
    assert np.allclose(grad, [[0.0, 1.0], [1.0, 0.0]])


def test_relu_gradient_matches_numerical():
    rng = np.random.default_rng(1)
    layer = ReLU()
    x = rng.standard_normal((3, 4))  # no coordinate within epsilon of the kink
    assert np.allclose(
        analytic_input_gradient(layer, x), numerical_input_gradient(layer, x), atol=1e-6
    )


def test_backward_before_forward_raises():
    with pytest.raises(ConfigurationError):
        ReLU().backward(np.ones((1, 2)))


def test_every_layer_has_a_stacked_rule():
    """The stacked per-file path is part of the layer contract, so the
    gradient engine never has to ask whether a model supports it."""

    class PlainOnly(Layer):
        def forward(self, x):
            return x

        def backward(self, grad_output):
            return grad_output

    with pytest.raises(TypeError, match="forward_per_file"):
        PlainOnly()
