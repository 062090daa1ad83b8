"""COW-001: attacks, faults, kernels and observers respect the copy-on-write round.

``VoteTensor.from_honest`` shares one read-only ``(f, d)`` honest base
across all replicas, and the vote hands its winners on as a
``RowSelection``: that base by reference plus the few rows that differ.
Writes go through the slot API (``write_slots``, ``add_to_slots``, ...);
the base itself is read-only (``base_rows()`` returns a read-only view, so
a write through it raises), which leaves two ways to lose the memory win
that only a static check sees.  Inside the mutating layers — ``attacks/``,
``cluster/faults.py`` — the aggregation kernels — ``aggregation/``,
``cluster/topology.py`` — and the layers that only look at a round —
``training/``, ``scenarios/``, ``utils/digest.py`` — this rule flags
``.densified()`` on the vote's winners (a ``RowSelection`` is read through
``lanes``, and the trace digests it from the vote's winner references;
``Aggregator.__call__`` holds the one waived call, for the rules that need
whole rows) and writes through another object's private attributes
(``tensor._store[...] = x`` bypasses the slot API's never-rewrite-a-stored-row
rule).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleInfo
from repro.analysis.rules.base import Rule, subscript_root

__all__ = ["CowSafetyRule"]

#: package-relative prefixes/files where the slot API is mandatory
_SCOPE_PREFIXES = ("attacks/", "aggregation/", "scenarios/", "training/")
_SCOPE_FILES = ("cluster/faults.py", "cluster/topology.py", "utils/digest.py")


def _in_scope(relpath: str) -> bool:
    return relpath.startswith(_SCOPE_PREFIXES) or relpath in _SCOPE_FILES


class CowSafetyRule(Rule):
    rule_id = "COW-001"
    invariant = (
        "attacks/, cluster/faults.py, the aggregation kernels and the "
        "observing layers (training/, scenarios/, utils/digest.py) never "
        "densify the vote's RowSelection (.densified()) nor write through "
        "another object's private storage; mutations go through the slot API "
        "(write_slots, add_to_slots, scale_slots, zero_slots)"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not _in_scope(module.relpath):
            return
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute) and node.attr == "densified":
                yield self.finding(
                    module,
                    node,
                    ".densified() builds the (n, d) matrix the vote stopped "
                    "copying; stream the selection (lanes, or array_digest "
                    "with the vote's winner_refs) or hand it to the aggregator",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    yield from self._check_write(module, target)

    def _check_write(self, module: ModuleInfo, target: ast.expr) -> Iterator[Finding]:
        if not isinstance(target, ast.Subscript):
            return
        root = subscript_root(target)
        # tensor._store[...] = x  (reaching into private storage)
        if (
            isinstance(root, ast.Attribute)
            and root.attr.startswith("_")
            and not (isinstance(root.value, ast.Name) and root.value.id == "self")
        ):
            yield self.finding(
                module,
                target,
                f"write through private attribute .{root.attr} bypasses "
                "the copy-on-write slot API",
            )
