"""Static invariant linter (``repro lint``).

The reproduction's bit-exactness story rests on a handful of repo-wide
conventions — RNG streams derived through :func:`repro.utils.rng.derive_seed`,
float dtype policy routed through :mod:`repro.core.backend`, copy-on-write
discipline around the lazy :class:`~repro.core.vote_tensor.VoteTensor`,
aggregation kernels that never mutate their inputs, and registries that know
every pluggable subclass.  The runtime test suite checks the *consequences* of
those conventions after the fact; this package checks the conventions
themselves, statically, by parsing every module with :mod:`ast` and running
a rule engine over the trees.

Run it as ``repro lint`` or ``python -m repro.analysis``.  Findings are
reported as ``path:line:col: RULE-ID message``; a finding can be waived on
its line with ``# repro-lint: disable=RULE-ID (reason)`` where the reason is
mandatory — a reasonless waiver is itself a finding.
"""

from __future__ import annotations

from repro.analysis.engine import (
    Finding,
    LintEngine,
    LintReport,
    ModuleInfo,
    ProjectContext,
    Waiver,
    lint_paths,
)
from repro.analysis.rules import ALL_RULES, Rule

__all__ = [
    "Finding",
    "LintEngine",
    "LintReport",
    "ModuleInfo",
    "ProjectContext",
    "Rule",
    "Waiver",
    "ALL_RULES",
    "lint_paths",
]
