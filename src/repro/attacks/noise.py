"""Noise attacks used in extension / ablation experiments.

These are not part of the paper's main evaluation but are standard in the
Byzantine-robustness literature and exercise different failure modes: huge
random values (easy for robust rules, catastrophic for the mean) and
plausible-magnitude random directions (harder to distinguish from honest
stochastic noise).
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack, AttackContext, byzantine_write_order
from repro.exceptions import AttackError

__all__ = ["GaussianNoiseAttack", "UniformRandomAttack"]


class GaussianNoiseAttack(Attack):
    """Return pure ``N(0, σ²)`` noise with a configurable (possibly huge) σ.

    Parameters
    ----------
    sigma:
        Noise standard deviation.
    """

    attack_name = "gaussian_noise"

    def __init__(self, sigma: float = 10.0) -> None:
        if not np.isfinite(sigma) or sigma <= 0:
            raise AttackError(f"sigma must be positive and finite, got {sigma}")
        self.sigma = float(sigma)

    def apply_tensor(self, context: AttackContext, tensor) -> None:
        # One stacked (m, d) draw, row j going to the j-th slot of
        # byzantine_write_order (worker, then file).
        if context.num_byzantine == 0:
            return
        files, slots = byzantine_write_order(context, tensor)
        payload = context.rng.standard_normal((files.size, tensor.dim)) * self.sigma
        tensor.write_slots(files, slots, payload)


class UniformRandomAttack(Attack):
    """Return a uniform random vector in ``[-magnitude, magnitude]^d``."""

    attack_name = "uniform_random"

    def __init__(self, magnitude: float = 1.0) -> None:
        if not np.isfinite(magnitude) or magnitude <= 0:
            raise AttackError(
                f"magnitude must be positive and finite, got {magnitude}"
            )
        self.magnitude = float(magnitude)

    def apply_tensor(self, context: AttackContext, tensor) -> None:
        # Same draw and write order as GaussianNoiseAttack.apply_tensor.
        if context.num_byzantine == 0:
            return
        files, slots = byzantine_write_order(context, tensor)
        payload = context.rng.uniform(
            -self.magnitude, self.magnitude, size=(files.size, tensor.dim)
        )
        tensor.write_slots(files, slots, payload)
