"""Static invariant linter (``repro lint``).

The reproduction's bit-exactness story rests on a handful of repo-wide
conventions.  Three are checked here, statically, by parsing every module
with :mod:`ast`: RNG streams derived through
:func:`repro.utils.rng.derive_seed`, float dtype policy routed through
:mod:`repro.core.backend`, and copy-on-write discipline around the lazy
:class:`~repro.core.vote_tensor.VoteTensor`.  Two others hold by
construction and need no rule: aggregation kernels are only ever handed
read-only arrays (a write raises), and each registry is built from the
names its classes declare (:class:`repro.utils.registry.Registry`).

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
    Waiver,
    lint_paths,
)
from repro.analysis.rules import ALL_RULES, Rule

__all__ = [
    "Finding",
    "LintEngine",
    "LintReport",
    "ModuleInfo",
    "Rule",
    "Waiver",
    "ALL_RULES",
    "lint_paths",
]
