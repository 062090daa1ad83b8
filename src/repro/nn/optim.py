"""Optimizer and learning-rate schedule.

The paper trains with mini-batch SGD with momentum 0.9 and a step-decay
learning-rate schedule denoted ``(x, y, z)``: start at ``x`` and multiply by
``y`` every ``z`` iterations (Appendix A.6, Table 7).  Both are implemented
here; the optimizer applies updates to a model's flat parameter vector, which
is how the parameter server performs Algorithm 1's line 17.
"""

from __future__ import annotations

import numpy as np

from repro.core.backend import ensure_float
from repro.exceptions import ConfigurationError

__all__ = ["StepDecaySchedule", "SGD"]


class StepDecaySchedule:
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
        """Learning rate at (zero-based) iteration ``iteration``."""
        if iteration < 0:
            raise ConfigurationError(f"iteration must be non-negative, got {iteration}")
        return self.initial * self.decay ** (iteration // self.period)


class SGD:
    """Stochastic gradient descent with momentum and no L2 term.

    The optimizer operates on flat vectors so it can be driven either by a
    model (local training) or by the parameter server (distributed training).

    Parameters
    ----------
    schedule:
        The ``(x, y, z)`` learning-rate schedule.
    momentum:
        Classical momentum coefficient (0 disables the velocity buffer).
    """

    def __init__(self, schedule: StepDecaySchedule, momentum: float = 0.0) -> None:
        self.schedule = schedule
        if not (0.0 <= momentum < 1.0):
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._velocity: np.ndarray | None = None
        self.iteration = 0

    def step_vector(self, params: np.ndarray, gradient: np.ndarray) -> np.ndarray:
        """Return updated parameters given the current flat gradient.

        ``float32``/``float64`` inputs keep their dtype through the update
        (the momentum buffer follows the parameter dtype); anything else is
        coerced to the backend default.

        The result is a new array and ``params`` is never written, so a view
        of the old parameters (:meth:`ParameterServer.broadcast
        <repro.training.trainer.ParameterServer.broadcast>`) keeps its values.
        The step evaluates ``params - rate * (momentum * v + gradient)`` with
        that expression's ufuncs, in its order and in the dtype each of them
        has there, but the step goes into the one new buffer it returns and
        the velocity is updated in place: the expression's bits, one
        parameter-sized allocation.
        """
        params = ensure_float(params)
        gradient = ensure_float(gradient)
        if params.shape != gradient.shape:
            raise ConfigurationError(
                f"parameter/gradient shape mismatch: {params.shape} vs {gradient.shape}"
            )
        velocity = None
        if self.momentum:
            velocity = self._velocity
            if velocity is None or velocity.shape != params.shape:
                velocity = np.zeros_like(params)
        # Every ufunc below is told the dtype it has in the expression, so a
        # float32/float64 mix rounds where the expression rounds even though
        # the buffer it writes has the result's (widest) dtype.
        operands = (params, gradient) if velocity is None else (params, gradient, velocity)
        step = np.empty(params.shape, dtype=np.result_type(*operands))
        if velocity is not None:
            scaled = np.result_type(velocity, gradient)
            out = velocity if velocity.dtype == scaled else np.empty(params.shape, dtype=scaled)
            np.multiply(self.momentum, velocity, out=out)
            self._velocity = gradient = np.add(out, gradient, out=out, dtype=scaled)
        rate = self.schedule.rate(self.iteration)
        self.iteration += 1
        np.multiply(rate, gradient, out=step, dtype=gradient.dtype)
        return np.subtract(params, step, out=step)
