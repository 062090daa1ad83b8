"""Byzantine attacks and adversarial worker selection.

Two orthogonal choices define the adversary of the paper:

* **which** workers are Byzantine — :mod:`repro.attacks.selection` provides
  the paper's omniscient selection that maximizes the distortion fraction
  ``ε̂``, and :mod:`repro.attacks.schedules` random selection (the
  DETOX/DRACO assumption) and time-varying budgets;
* **what** the Byzantine workers send — :mod:`repro.attacks` implements ALIE,
  the constant attack, reversed gradient, Gaussian-noise and random attacks,
  plus the adaptive adversary zoo: inner-product manipulation, sign-flip
  collusion, Fang-style aggregator-aware payload search and the AGR-agnostic
  min-max / min-sum attacks.
"""

from repro.attacks.adaptive import FangAdaptiveAttack, MinMaxAttack, MinSumAttack
from repro.attacks.alie import ALIEAttack, alie_z_max
from repro.attacks.base import Attack, AttackContext
from repro.attacks.constant import ConstantAttack
from repro.attacks.inner_product import InnerProductManipulationAttack
from repro.attacks.noise import GaussianNoiseAttack, UniformRandomAttack
from repro.attacks.registry import (
    available_attacks,
    create_attack,
    get_attack,
    register_attack,
)
from repro.attacks.reversed_gradient import ReversedGradientAttack
from repro.attacks.selection import (
    ByzantineSelector,
    OmniscientSelector,
)
from repro.attacks.sign_flip import SignFlipAttack

__all__ = [
    "Attack",
    "AttackContext",
    "ReversedGradientAttack",
    "ConstantAttack",
    "ALIEAttack",
    "alie_z_max",
    "GaussianNoiseAttack",
    "UniformRandomAttack",
    "InnerProductManipulationAttack",
    "SignFlipAttack",
    "FangAdaptiveAttack",
    "MinMaxAttack",
    "MinSumAttack",
    "ByzantineSelector",
    "OmniscientSelector",
    "available_attacks",
    "create_attack",
    "get_attack",
    "register_attack",
]
