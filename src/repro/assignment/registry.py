"""Registry of assignment schemes, keyed by each class's ``scheme_name``.

Experiment configuration files refer to an assignment scheme by the name
its class declares; the registry resolves the name and forwards keyword
arguments to the constructor.  A scheme written for an ablation joins with
``register_scheme(cls)`` under its own ``scheme_name``.
"""

from __future__ import annotations

from repro.assignment.base import AssignmentScheme
from repro.assignment.baseline import BaselineAssignment
from repro.assignment.frc import FRCAssignment
from repro.assignment.mols import MOLSAssignment
from repro.assignment.ramanujan import RamanujanAssignment
from repro.assignment.random_scheme import RandomAssignment
from repro.utils.registry import Registry

__all__ = ["register_scheme", "get_scheme", "available_schemes", "create_scheme"]

_REGISTRY: Registry[AssignmentScheme] = Registry(
    "assignment scheme",
    AssignmentScheme,
    "scheme_name",
    (
        MOLSAssignment,
        RamanujanAssignment,
        FRCAssignment,
        BaselineAssignment,
        RandomAssignment,
    ),
)

register_scheme = _REGISTRY.register
get_scheme = _REGISTRY.get
create_scheme = _REGISTRY.create
available_schemes = _REGISTRY.names
