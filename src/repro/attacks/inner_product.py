"""Inner-product manipulation (Xie et al., 2020).

The colluding Byzantine workers all report ``−ε·µ`` where ``µ`` is the mean
of the honest gradients.  The crafted vector has a *negative inner product*
with the true descent direction, so whenever it survives aggregation the
model takes an ascent step — Xie et al. show that for ``ε`` small enough the
crafted vector sits inside the ball that median/Krum-style rules tolerate,
so the manipulation passes straight through distance-based defenses.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack, AttackContext
from repro.exceptions import AttackError

__all__ = ["InnerProductManipulationAttack"]


class InnerProductManipulationAttack(Attack):
    """Collusive ``−ε·mean(honest)`` payload with negative inner product.

    Parameters
    ----------
    epsilon:
        Scale of the reversed mean.  Small values (the paper uses ε ≤ 1)
        keep the payload within the tolerance ball of distance-based
        defenses while still reversing the update direction.
    """

    attack_name = "inner_product"

    def __init__(self, epsilon: float = 0.5) -> None:
        if not np.isfinite(epsilon) or epsilon <= 0:
            raise AttackError(f"epsilon must be positive and finite, got {epsilon}")
        self.epsilon = float(epsilon)

    def payload(self, context: AttackContext) -> np.ndarray:
        return -self.epsilon * context.stacked_honest_gradients().mean(axis=0)
