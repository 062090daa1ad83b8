"""Sign-flip collusion (Li et al., 2019; Karimireddy et al., 2021).

All Byzantine workers agree on a vector pointing against the sign of the
honest mean with a fixed per-coordinate magnitude.  Unlike the reversed
gradient the payload does not shrink as training converges, and unlike the
constant attack it adapts its direction to the current honest update —
against sign-based aggregation (signSGD) every colluding vote pushes each
coordinate's majority toward the wrong sign.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack, AttackContext
from repro.core.backend import DEFAULT_DTYPE
from repro.exceptions import AttackError

__all__ = ["SignFlipAttack"]


class SignFlipAttack(Attack):
    """Collusive ``−magnitude·sign(mean(honest))`` payload.

    Parameters
    ----------
    magnitude:
        Per-coordinate magnitude of the flipped vector.  Coordinates whose
        honest mean is exactly zero are pushed in the negative direction so
        the payload never contains zeros.
    """

    attack_name = "sign_flip"

    def __init__(self, magnitude: float = 1.0) -> None:
        if not np.isfinite(magnitude) or magnitude <= 0:
            raise AttackError(
                f"magnitude must be positive and finite, got {magnitude}"
            )
        self.magnitude = float(magnitude)

    def payload(self, context: AttackContext) -> np.ndarray:
        mean = context.stacked_honest_gradients().mean(axis=0)
        # sign(µ) with sign(0) := +1, so the payload is ±magnitude everywhere.
        flipped = np.where(mean >= 0.0, -self.magnitude, self.magnitude)
        return flipped.astype(DEFAULT_DTYPE, copy=False)
