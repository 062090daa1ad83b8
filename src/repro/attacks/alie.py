"""ALIE — "A Little Is Enough" (Baruch et al., 2019).

The colluding Byzantine workers estimate the per-coordinate mean ``µ_i`` and
standard deviation ``σ_i`` of the honest gradients and all report
``µ_i − z·σ_i``: a perturbation small enough to look like an honest gradient
(staying within ``z`` standard deviations) but, because all Byzantines agree
on it, large enough to drag median-style aggregators away from the true mean.
The paper calls this "the most sophisticated attack in literature for
centralized setups" and uses it as its headline attack (Figures 2–5).

The deflection magnitude ``z`` is chosen as in the original paper: the largest
``z`` such that the ``q`` colluding values plus the honest values within ``z``
standard deviations still form a majority, computed from the Gaussian CDF.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import stats

from repro.attacks.base import Attack, AttackContext
from repro.exceptions import AttackError
from repro.utils.arrays import column_mean_std

__all__ = ["ALIEAttack", "alie_z_max"]


@functools.lru_cache
def alie_z_max(num_voters: int, num_byzantine: int) -> float:
    """The ALIE deflection ``z_max`` for ``n`` voters of which ``q`` collude.

    Following Baruch et al.: the attackers need
    ``s = floor(n/2 + 1) − q`` honest "supporters" whose values are more
    extreme than the crafted one, so ``z_max = Φ⁻¹((n − q − s) / (n − q))``.
    Degenerate regimes (``q`` already a majority, or no honest workers) fall
    back to a unit deflection.  Memoised: a static adversary asks for the
    same ``(n, q)`` every round, and an error is never cached.
    """
    n = int(num_voters)
    q = int(num_byzantine)
    if n <= 0:
        raise AttackError(f"num_voters must be positive, got {n}")
    if q < 0 or q > n:
        raise AttackError(f"num_byzantine must be in [0, {n}], got {q}")
    honest = n - q
    supporters = n // 2 + 1 - q
    if honest <= 0 or supporters <= 0:
        return 1.0
    probability = (honest - supporters) / honest
    if probability <= 0.0:
        return 0.0
    if probability >= 1.0:
        return 1.0
    return float(stats.norm.ppf(probability))


class ALIEAttack(Attack):
    """Collusive mean-shift attack using honest gradient statistics.

    Parameters
    ----------
    z:
        Optional fixed deflection; when ``None`` (default) ``z_max`` is
        computed each iteration from the number of workers ``K`` and of
        Byzantine workers ``q``: ``alie_z_max(K, q)``, Baruch et al.'s
        calibration over the workers.  Whether the population should be
        what the aggregator actually sees (the ``f`` post-vote file
        gradients, at most ``c_max`` of them distorted) is an open question
        in ROADMAP.md (item 4); until it is settled the calibration stays on
        ``(K, q)``.
    negative_direction:
        If True (default) the crafted vector is ``µ − z·σ``; otherwise
        ``µ + z·σ``.
    """

    attack_name = "alie"

    def __init__(self, z: float | None = None, negative_direction: bool = True) -> None:
        if z is not None and (not np.isfinite(z) or z < 0):
            raise AttackError(f"z must be a non-negative finite value, got {z}")
        self.z = None if z is None else float(z)
        self.negative_direction = bool(negative_direction)

    def payload(self, context: AttackContext) -> np.ndarray:
        mean, std = column_mean_std(context.stacked_honest_gradients())
        if self.z is not None:
            z = self.z
        else:
            # The classic calibration: n = K workers of which q collude.  The
            # vote population the aggregator sees (f files, <= c_max of them
            # distorted) is the open question of ROADMAP.md item 4.
            z = alie_z_max(context.assignment.num_workers, context.num_byzantine)
        direction = -1.0 if self.negative_direction else 1.0
        # ``mean + direction * z * std`` ufunc for ufunc, in the two vectors
        # the statistics returned instead of a third.
        np.multiply(direction * z, std, out=std)
        return np.add(mean, std, out=mean)
