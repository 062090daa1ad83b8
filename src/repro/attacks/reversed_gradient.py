"""Reversed-gradient attack.

Byzantine workers return ``−c·g`` instead of the true gradient ``g`` for some
``c > 0`` (paper Section 6.1).  It is the weakest of the paper's three attacks
because robust aggregators easily filter values that point in the exact
opposite direction of the honest cluster.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack, AttackContext
from repro.exceptions import AttackError

__all__ = ["ReversedGradientAttack"]


class ReversedGradientAttack(Attack):
    """Return the negated (and optionally rescaled) true gradient.

    Parameters
    ----------
    scale:
        The positive constant ``c``; the adversarial vector is ``−scale·g``.
        The paper (and the DETOX codebase) commonly use large values such as
        100 to maximize damage when the value survives aggregation.
    """

    attack_name = "reversed_gradient"

    def __init__(self, scale: float = 100.0) -> None:
        if not np.isfinite(scale) or scale <= 0:
            raise AttackError(f"scale must be positive and finite, got {scale}")
        self.scale = float(scale)

    def apply_tensor(self, context: AttackContext, tensor) -> None:
        if context.num_byzantine == 0:
            return
        files, slots = np.nonzero(tensor.byzantine_mask)
        honest = context.stacked_honest_gradients()
        tensor.write_slots(files, slots, -self.scale * honest[files])
