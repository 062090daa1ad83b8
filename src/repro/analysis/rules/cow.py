"""COW-001: attacks, faults, kernels and observers respect the lazy VoteTensor.

``VoteTensor.from_honest`` shares one read-only ``(f, d)`` honest base
across all replicas; per-(file, slot) overrides materialize lazily through
the slot API (``write_slots``, ``set_vote``, ``add_to_slots``, ...).  The
memory win evaporates if a mutator densifies the cube (``.values``) or
writes through the shared base, and a base write corrupts *every* replica
of the honest gradient at once.  Inside the mutating layers — ``attacks/``,
``cluster/faults.py`` — the aggregation kernels — ``aggregation/``,
``cluster/topology.py`` — and the layers that only look at a round —
``training/``, ``scenarios/``, ``utils/digest.py`` (the trace digest once
densified every observed round just to hash it) — this rule flags
``.values`` densification (a property load; dict ``.values()`` calls are
fine), ``.densified()`` on the vote's winners (a ``RowSelection`` is read
through ``row_runs`` / ``lanes``; ``Aggregator.__call__`` holds the one
waived call, for the rules that need whole rows), writes into arrays
obtained from the base accessors (``base_rows`` / ``base_block``), and
writes through another object's private attributes.
``campaigns/`` is deliberately out of scope: ``GridAxis.values`` there is an
unrelated attribute.
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

#: VoteTensor accessors returning (views of) the shared honest base
_BASE_ACCESSORS = frozenset({"base_rows", "base_block"})


def _in_scope(relpath: str) -> bool:
    return relpath.startswith(_SCOPE_PREFIXES) or relpath in _SCOPE_FILES


class CowSafetyRule(Rule):
    rule_id = "COW-001"
    invariant = (
        "attacks/, cluster/faults.py, the aggregation kernels and the "
        "observing layers (training/, scenarios/, utils/digest.py) never "
        "densify a lazy VoteTensor (.values) or the vote's RowSelection "
        "(.densified()) nor write through the shared honest base; mutations "
        "go through the slot API (write_slots, "
        "set_vote, add_to_slots, scale_slots, zero_slots)"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not _in_scope(module.relpath):
            return
        assert module.tree is not None
        call_funcs = {
            id(node.func) for node in ast.walk(module.tree) if isinstance(node, ast.Call)
        }
        base_aliases = self._base_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute) and node.attr == "values":
                # `d.values()` iterates a dict; a bare `.values` load is the
                # VoteTensor densification property.
                if id(node) not in call_funcs and isinstance(node.ctx, ast.Load):
                    yield self.finding(
                        module,
                        node,
                        ".values densifies the (f, r, d) cube, defeating "
                        "copy-on-write replication; use the slot API "
                        "(select_slots / read_slots / materialize_files / "
                        "row_runs)",
                    )
            elif isinstance(node, ast.Attribute) and node.attr == "densified":
                yield self.finding(
                    module,
                    node,
                    ".densified() builds the (n, d) matrix the vote stopped "
                    "copying; stream the selection (row_runs / lanes / "
                    "array_digest) or hand it to the aggregator",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    yield from self._check_write(module, target, base_aliases)

    @staticmethod
    def _base_aliases(tree: ast.Module) -> set[str]:
        """Names bound to arrays returned by the base accessors."""
        aliases: set[str] = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr in _BASE_ACCESSORS
            ):
                aliases.add(node.targets[0].id)
        return aliases

    def _check_write(
        self, module: ModuleInfo, target: ast.expr, base_aliases: set[str]
    ) -> Iterator[Finding]:
        if isinstance(target, ast.Subscript):
            root = subscript_root(target)
            # tensor.base_rows()[...] = x  (direct write through the base)
            if (
                isinstance(root, ast.Call)
                and isinstance(root.func, ast.Attribute)
                and root.func.attr in _BASE_ACCESSORS
            ):
                yield self.finding(
                    module,
                    target,
                    f"writing into {root.func.attr}() mutates the shared "
                    "honest base under every replica; use write_slots / "
                    "set_vote instead",
                )
            # base = tensor.base_rows(); base[...] = x
            elif isinstance(root, ast.Name) and root.id in base_aliases:
                yield self.finding(
                    module,
                    target,
                    f"{root.id!r} aliases the shared honest base "
                    "(base_rows/base_block); writing through it mutates "
                    "every replica — use the slot API",
                )
            # tensor._base[...] = x  (reaching into private storage)
            elif (
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
