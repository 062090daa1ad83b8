"""Constant attack.

Byzantine workers send a constant vector with every coordinate equal to a
fixed value (paper Section 6.1).  Against sign-based defenses (signSGD) this
is particularly damaging because it flips the sign of every coordinate whose
honest majority is weak, and unlike the reversed gradient it does not shrink
as training converges.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack, AttackContext
from repro.exceptions import AttackError

__all__ = ["ConstantAttack"]


class ConstantAttack(Attack):
    """Send ``value`` in every coordinate, regardless of the true gradient.

    Parameters
    ----------
    value:
        The constant fill value; the paper uses a negative constant so the
        update direction is pushed away from the descent direction.
    """

    attack_name = "constant"

    def __init__(self, value: float = -1.0) -> None:
        if not np.isfinite(value):
            raise AttackError(f"value must be finite, got {value}")
        self.value = float(value)

    def payload(self, context: AttackContext) -> float:
        return self.value
