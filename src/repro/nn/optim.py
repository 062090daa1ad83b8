"""Optimizer and learning-rate schedules.

The paper trains with mini-batch SGD with momentum 0.9 and a step-decay
learning-rate schedule denoted ``(x, y, z)``: start at ``x`` and multiply by
``y`` every ``z`` iterations (Appendix A.6, Table 7).  Both are implemented
here; the optimizer applies updates to a model's flat parameter vector, which
is how the parameter server performs Algorithm 1's line 17.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.backend import ensure_float
from repro.exceptions import ConfigurationError

__all__ = ["LearningRateSchedule", "ConstantSchedule", "StepDecaySchedule", "SGD"]


class LearningRateSchedule(abc.ABC):
    """Iteration-indexed learning rate ``η_t``."""

    @abc.abstractmethod
    def rate(self, iteration: int) -> float:
        """Learning rate at (zero-based) iteration ``iteration``."""


class ConstantSchedule(LearningRateSchedule):
    """A fixed learning rate."""

    def __init__(self, learning_rate: float) -> None:
        if learning_rate <= 0:
            raise ConfigurationError(
                f"learning_rate must be positive, got {learning_rate}"
            )
        self.learning_rate = float(learning_rate)

    def rate(self, iteration: int) -> float:
        return self.learning_rate


class StepDecaySchedule(LearningRateSchedule):
    """The paper's ``(x, y, z)`` schedule: ``η_t = x * y**(t // z)``.

    Parameters
    ----------
    initial:
        Starting rate ``x``.
    decay:
        Multiplicative factor ``y`` applied every ``period`` iterations.
    period:
        Number of iterations ``z`` between decays.
    """

    def __init__(self, initial: float, decay: float, period: int) -> None:
        if initial <= 0:
            raise ConfigurationError(f"initial rate must be positive, got {initial}")
        if decay <= 0:
            raise ConfigurationError(f"decay must be positive, got {decay}")
        if period < 1:
            raise ConfigurationError(f"period must be >= 1, got {period}")
        self.initial = float(initial)
        self.decay = float(decay)
        self.period = int(period)

    def rate(self, iteration: int) -> float:
        if iteration < 0:
            raise ConfigurationError(f"iteration must be non-negative, got {iteration}")
        return self.initial * self.decay ** (iteration // self.period)


class SGD:
    """Stochastic gradient descent with momentum and optional weight decay.

    The optimizer operates on flat vectors so it can be driven either by a
    model (local training) or by the parameter server (distributed training).

    Parameters
    ----------
    schedule:
        Learning-rate schedule; a bare float is promoted to a constant rate.
    momentum:
        Classical momentum coefficient (0 disables the velocity buffer).
    weight_decay:
        L2 penalty added to the gradient as ``weight_decay * w``.
    """

    def __init__(
        self,
        schedule: LearningRateSchedule | float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        if isinstance(schedule, (int, float)):
            schedule = ConstantSchedule(float(schedule))
        self.schedule = schedule
        if not (0.0 <= momentum < 1.0):
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ConfigurationError(
                f"weight_decay must be non-negative, got {weight_decay}"
            )
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: np.ndarray | None = None
        self.iteration = 0

    def step_vector(self, params: np.ndarray, gradient: np.ndarray) -> np.ndarray:
        """Return updated parameters given the current flat gradient.

        ``float32``/``float64`` inputs keep their dtype through the update
        (the momentum buffer follows the parameter dtype); anything else is
        coerced to the backend default.
        """
        params = ensure_float(params)
        gradient = ensure_float(gradient)
        if params.shape != gradient.shape:
            raise ConfigurationError(
                f"parameter/gradient shape mismatch: {params.shape} vs {gradient.shape}"
            )
        if self.weight_decay:
            gradient = gradient + self.weight_decay * params
        if self.momentum:
            if self._velocity is None or self._velocity.shape != params.shape:
                self._velocity = np.zeros_like(params)
            self._velocity = self.momentum * self._velocity + gradient
            direction = self._velocity
        else:
            direction = gradient
        rate = self.schedule.rate(self.iteration)
        self.iteration += 1
        return params - rate * direction
