"""The rule set behind ``repro lint``.

Each rule enforces one of the conventions the runtime test suite otherwise
only checks by consequence; see the individual modules for the full
rationale.  ``ALL_RULES`` is the default set the engine runs.
"""

from __future__ import annotations

from repro.analysis.rules.base import Rule
from repro.analysis.rules.cow import CowSafetyRule
from repro.analysis.rules.dtype import DtypeSeamRule
from repro.analysis.rules.rng import RngPurityRule

__all__ = [
    "Rule",
    "RngPurityRule",
    "DtypeSeamRule",
    "CowSafetyRule",
    "ALL_RULES",
]

#: the default rule set, in rule-id order
ALL_RULES: tuple[Rule, ...] = (
    RngPurityRule(),
    DtypeSeamRule(),
    CowSafetyRule(),
)
