"""Rule base class and shared AST helpers."""

from __future__ import annotations

import abc
import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleInfo

__all__ = [
    "Rule",
    "numpy_aliases",
    "attribute_chain",
    "subscript_root",
]


class Rule(abc.ABC):
    """One invariant check, run on each parsed module."""

    #: stable identifier, e.g. ``"RNG-001"`` — what waivers and CI key on
    rule_id: str = ""
    #: one-line statement of the invariant (rendered by ``--list-rules``)
    invariant: str = ""

    def __repr__(self) -> str:  # stable across processes (docs are generated from it)
        return f"<{type(self).__name__} {self.rule_id}>"

    @abc.abstractmethod
    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        """Yield findings for one parsed module."""

    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=str(module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.rule_id,
            message=message,
        )


def numpy_aliases(tree: ast.Module) -> set[str]:
    """Local names bound to the numpy module (``np``, ``numpy``, ...)."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    aliases.add(alias.asname or "numpy")
    return aliases


def attribute_chain(node: ast.expr) -> list[str] | None:
    """``a.b.c`` -> ``["a", "b", "c"]``; None for non-name-rooted chains."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    parts.reverse()
    return parts


def subscript_root(node: ast.expr) -> ast.expr:
    """Innermost object of nested subscripts: ``x[i][j]`` -> ``x``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node
