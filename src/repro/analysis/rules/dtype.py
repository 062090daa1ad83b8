"""DTYPE-001: float dtype policy lives in ``repro.core.backend`` only.

PR 5 threaded a dtype seam through the round loop so the same kernels run
``float32`` or ``float64`` end to end.  A hard-coded ``np.float64`` past
that seam silently re-promotes a float32 run (or truncates a float64 one)
and the bug only surfaces as an rtol mismatch three layers later.  Float
dtype literals therefore may appear in ``core/backend.py`` and nowhere
else; everything else routes through ``DEFAULT_DTYPE`` / ``resolve_dtype``
/ ``ensure_float``.  Integer and bool dtypes are not policy and stay
untouched.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleInfo
from repro.analysis.rules.base import Rule, attribute_chain, numpy_aliases

__all__ = ["DtypeSeamRule"]

#: the allowed home of float dtype literals
_SEAM = "core/backend.py"

#: numpy float scalar-type attributes that count as policy decisions
_FLOAT_ATTRS = frozenset({"float32", "float64", "float16", "float_", "double", "single"})

#: string dtype specs that count as policy decisions
_FLOAT_STRINGS = frozenset({"float16", "float32", "float64", "f2", "f4", "f8"})


class DtypeSeamRule(Rule):
    rule_id = "DTYPE-001"
    invariant = (
        "no bare float dtype literals (np.float64/np.float32, dtype=float, "
        "astype(float), 'float64' strings) outside core/backend.py; route "
        "through DEFAULT_DTYPE / resolve_dtype / ensure_float"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.relpath == _SEAM:
            return
        assert module.tree is not None
        aliases = numpy_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                chain = attribute_chain(node)
                if (
                    chain is not None
                    and len(chain) == 2
                    and chain[0] in aliases
                    and chain[1] in _FLOAT_ATTRS
                ):
                    yield self.finding(
                        module,
                        node,
                        f"np.{chain[1]} hard-codes the float policy past the "
                        "dtype seam; use repro.core.backend (DEFAULT_DTYPE / "
                        "resolve_dtype / ensure_float)",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "numpy":
                    for alias in node.names:
                        if alias.name in _FLOAT_ATTRS:
                            yield self.finding(
                                module,
                                node,
                                f"import of numpy.{alias.name} hard-codes the "
                                "float policy past the dtype seam",
                            )
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node, aliases)

    def _check_call(
        self, module: ModuleInfo, node: ast.Call, aliases: set[str]
    ) -> Iterator[Finding]:
        # x.astype(float) / x.astype("float64")
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and node.args
        ):
            if self._is_bare_float(node.args[0]):
                yield self.finding(
                    module,
                    node,
                    "astype(<bare float dtype>) bypasses the dtype seam; use "
                    "ensure_float from repro.core.backend",
                )
        # np.dtype("float64") / np.dtype(float)
        chain = attribute_chain(node.func) if node.func is not None else None
        if (
            chain is not None
            and len(chain) == 2
            and chain[0] in aliases
            and chain[1] == "dtype"
            and node.args
            and self._is_bare_float(node.args[0])
        ):
            yield self.finding(
                module,
                node,
                "np.dtype(<bare float>) bypasses the dtype seam; use "
                "resolve_dtype from repro.core.backend",
            )
        # dtype=float / dtype="float64" keyword on any call
        for keyword in node.keywords:
            if keyword.arg == "dtype" and self._is_bare_float(keyword.value):
                yield self.finding(
                    module,
                    keyword.value,
                    "dtype=<bare float literal> bypasses the dtype seam; use "
                    "DEFAULT_DTYPE or a dtype resolved by repro.core.backend",
                )

    @staticmethod
    def _is_bare_float(node: ast.expr) -> bool:
        if isinstance(node, ast.Name) and node.id == "float":
            return True
        if isinstance(node, ast.Constant) and node.value in _FLOAT_STRINGS:
            return True
        return False
