"""The per-file gradient reference: one file through an MLP, in plain numpy.

The oracle of the stacked pass (``Sequential.per_file_loss_and_gradients``,
which ``ModelGradientComputer.batched`` runs): row ``i`` of a round's
``(f, d)`` gradient matrix, and its loss ``i``, must be bit for bit what
:func:`looped_gradients` gives for file ``i`` alone.  The bits can match
because this module does what the engine does, op for op, with the operand
shapes of one file: ``x @ W`` then ``+= b`` forward, ``x.T @ grad``,
``grad.sum(axis=0)`` and ``grad @ W.T`` backward, the ReLU's mask
multiplied in.  Nothing else is shared: it imports nothing from
``repro.nn`` or ``repro.training``, keeps no state between calls, and reads
the weights out of the flat parameter vector by its own copy of the layout.

A model is its layers in order: :data:`RELU`, or a dense layer's
``(in, out)`` widths.  The flat vector holds, layer after layer, each dense
layer's ``W`` (``in x out``, row-major) and then its ``b`` (``out``); a ReLU
holds nothing.  The backward pass stops at the first dense layer, whose
input gradient nobody reads, as the engine's does.
"""

from __future__ import annotations

import numpy as np

RELU = "relu"

#: added to the picked probability before its log, as the engine's loss does
EPSILON = 1e-12


def mlp_layers(input_dim, num_classes, hidden=(64, 64)):
    """The layers of ``build_mlp(input_dim, num_classes, hidden)``: a dense
    layer and a ReLU per hidden width, then the linear head."""
    widths = [input_dim, *hidden, num_classes]
    layers = []
    for width_in, width_out in zip(widths, widths[1:]):
        layers += [(width_in, width_out), RELU]
    return layers[:-1]


def unpack(layers, params):
    """Each layer's ``(W, b)`` as views of ``params`` (``None`` for a ReLU)."""
    weights, offset = [], 0
    for layer in layers:
        if layer == RELU:
            weights.append(None)
            continue
        width_in, width_out = layer
        end = offset + width_in * width_out
        weights.append(
            (params[offset:end].reshape(width_in, width_out), params[end : end + width_out])
        )
        offset = end + width_out
    assert offset == params.size, f"{params.size} parameters, the layers hold {offset}"
    return weights


def cross_entropy(logits, y):
    """Mean softmax cross entropy of ``(n, classes)`` logits against ``(n,)``
    integer labels (a numpy scalar), and its gradient w.r.t. the logits."""
    grad = logits - logits.max(axis=-1, keepdims=True)
    np.exp(grad, out=grad)
    grad /= grad.sum(axis=-1, keepdims=True)
    picked = (np.arange(len(y)), np.asarray(y).astype(np.int64))
    loss = -np.log(grad[picked] + EPSILON).mean()
    grad[picked] -= 1.0
    grad /= len(y)
    return loss, grad


def _loss_and_gradient(weights, x, y):
    """One file's mean loss (a numpy scalar) and flat gradient, the weights unpacked."""
    saved = []  # per layer, what its backward pass reads: its input, or its mask
    out = x
    for w in weights:
        if w is None:
            saved.append(out > 0)
            out = np.where(out > 0, out, 0.0)
        else:
            saved.append(out)
            out = out @ w[0]
            out += w[1]
    loss, grad = cross_entropy(out, y)
    first = next(i for i, w in enumerate(weights) if w is not None)
    parts = []
    for index in range(len(weights) - 1, first - 1, -1):
        w = weights[index]
        if w is None:
            grad = grad * saved[index]
            continue
        parts[:0] = [(saved[index].T @ grad).ravel(), grad.sum(axis=0)]
        if index > first:
            grad = grad @ w[0].T
    return loss, np.concatenate(parts)


def looped_gradients(layers, params, files):
    """The per-file loop: the weights read once, then each ``(x (n, in),
    y (n,))`` pair of ``files`` in turn (``x`` cast to ``params``' dtype), as
    one ``(f, d)`` gradient matrix and the ``(f,)`` mean losses, both in
    ``params``' dtype."""
    params = np.asarray(params)
    weights = unpack(layers, params)
    gradients = np.empty((len(files), params.size), dtype=params.dtype)
    losses = np.empty(len(files), dtype=params.dtype)
    for i, (x, y) in enumerate(files):
        losses[i], gradients[i] = _loss_and_gradient(
            weights, np.asarray(x, dtype=params.dtype), y
        )
    return gradients, losses


def reference_compress(compressor, gradient):
    """What ``compressor`` (``sign`` or ``topk``) reconstructs from one flat
    ``gradient`` alone: the row-by-row oracle of ``compress_matrix``."""
    if compressor.compressor_name == "sign":
        return float(np.mean(np.abs(gradient))) * np.sign(gradient)
    assert compressor.compressor_name == "topk", compressor.compressor_name
    k = max(1, int(round(compressor.fraction * gradient.size)))
    keep = np.argsort(np.abs(gradient))[-k:]
    vector = np.zeros_like(gradient)
    vector[keep] = gradient[keep]
    return vector
