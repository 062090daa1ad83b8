"""A small, from-scratch neural-network library on numpy.

This substrate replaces PyTorch in the reproduction (see DESIGN.md): it
provides layers with explicit forward/backward passes, losses, models with
flat parameter/gradient views (what the distributed simulator exchanges),
an SGD-with-momentum optimizer and the step-decay learning-rate schedule of
the paper's appendix.
"""

from repro.nn.initializers import he_normal, zeros_init
from repro.nn.layers import Layer, Dense, ReLU
from repro.nn.losses import Loss, SoftmaxCrossEntropy
from repro.nn.metrics import top1_accuracy, cross_entropy_loss
from repro.nn.models import Sequential, build_mlp
from repro.nn.optim import SGD, StepDecaySchedule

__all__ = [
    "he_normal",
    "zeros_init",
    "Layer",
    "Dense",
    "ReLU",
    "Loss",
    "SoftmaxCrossEntropy",
    "Sequential",
    "build_mlp",
    "SGD",
    "StepDecaySchedule",
    "top1_accuracy",
    "cross_entropy_loss",
]
