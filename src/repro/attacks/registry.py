"""Registry of attacks, keyed by each class's ``attack_name``."""

from __future__ import annotations

from repro.attacks.adaptive import FangAdaptiveAttack, MinMaxAttack, MinSumAttack
from repro.attacks.alie import ALIEAttack
from repro.attacks.base import Attack
from repro.attacks.constant import ConstantAttack
from repro.attacks.inner_product import InnerProductManipulationAttack
from repro.attacks.noise import GaussianNoiseAttack, UniformRandomAttack
from repro.attacks.reversed_gradient import ReversedGradientAttack
from repro.attacks.sign_flip import SignFlipAttack
from repro.utils.registry import Registry

__all__ = ["register_attack", "get_attack", "create_attack", "available_attacks"]

_REGISTRY: Registry[Attack] = Registry(
    "attack",
    Attack,
    "attack_name",
    (
        ALIEAttack,
        ConstantAttack,
        ReversedGradientAttack,
        GaussianNoiseAttack,
        UniformRandomAttack,
        InnerProductManipulationAttack,
        SignFlipAttack,
        FangAdaptiveAttack,
        MinMaxAttack,
        MinSumAttack,
    ),
)

register_attack = _REGISTRY.register
get_attack = _REGISTRY.get
create_attack = _REGISTRY.create
available_attacks = _REGISTRY.names
