"""RNG-001: all randomness flows through ``repro.utils.rng`` streams.

Bit-exact replay requires every stochastic draw to come from a
``numpy.random.Generator`` threaded from a ``derive_seed``-derived stream.
Legacy global-state numpy RNG (``np.random.seed`` + module-level draw
functions) and the stdlib ``random`` module are process-global and
order-dependent, so one stray call desynchronizes every stream recorded in
the golden traces.  Constructing generators directly (``np.random.
default_rng``, ``SeedSequence``, ``RandomState``) outside the seam is also
flagged: streams must be created by :mod:`repro.utils.rng` so seed
derivation stays auditable in one place.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleInfo
from repro.analysis.rules.base import Rule, attribute_chain, numpy_aliases

__all__ = ["RngPurityRule"]

#: the allowed home of generator construction
_SEAM = "utils/rng.py"

#: module-level legacy draw / global-state functions of ``numpy.random``
_LEGACY = frozenset(
    {
        "seed",
        "get_state",
        "set_state",
        "rand",
        "randn",
        "randint",
        "random_integers",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "bytes",
        "choice",
        "shuffle",
        "permutation",
        "beta",
        "binomial",
        "chisquare",
        "dirichlet",
        "exponential",
        "gamma",
        "geometric",
        "gumbel",
        "hypergeometric",
        "laplace",
        "logistic",
        "lognormal",
        "multinomial",
        "multivariate_normal",
        "negative_binomial",
        "normal",
        "pareto",
        "poisson",
        "power",
        "rayleigh",
        "standard_cauchy",
        "standard_exponential",
        "standard_gamma",
        "standard_normal",
        "standard_t",
        "triangular",
        "uniform",
        "vonmises",
        "wald",
        "weibull",
        "zipf",
    }
)

#: stream constructors that may only appear inside the seam module
_CONSTRUCTORS = frozenset(
    {"default_rng", "SeedSequence", "RandomState", "PCG64", "Philox", "MT19937", "SFC64"}
)

#: ``np.random.<attr>`` references that are always fine (type annotations,
#: isinstance checks)
_ALLOWED_ATTRS = frozenset({"Generator", "BitGenerator"})


class RngPurityRule(Rule):
    rule_id = "RNG-001"
    invariant = (
        "randomness comes from Generator streams built by repro.utils.rng "
        "(derive_seed / as_generator / spawn_generators); no legacy "
        "np.random global state, no stdlib random, no ad-hoc generator "
        "construction outside utils/rng.py"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.relpath == _SEAM:
            return
        assert module.tree is not None
        aliases = numpy_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            module,
                            node,
                            "stdlib 'random' is process-global state; use a "
                            "numpy Generator from repro.utils.rng instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(
                        module,
                        node,
                        "stdlib 'random' is process-global state; use a "
                        "numpy Generator from repro.utils.rng instead",
                    )
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name in _ALLOWED_ATTRS:
                            continue
                        yield self.finding(
                            module,
                            node,
                            f"import of numpy.random.{alias.name} bypasses the "
                            "repro.utils.rng seam",
                        )
            elif isinstance(node, ast.Attribute):
                yield from self._check_attribute(module, node, aliases)

    def _check_attribute(
        self, module: ModuleInfo, node: ast.Attribute, aliases: set[str]
    ) -> Iterator[Finding]:
        chain = attribute_chain(node)
        if chain is None or len(chain) != 3:
            return
        root, middle, leaf = chain
        if middle != "random" or root not in aliases:
            return
        if leaf in _LEGACY:
            yield self.finding(
                module,
                node,
                f"np.random.{leaf} draws from the process-global legacy RNG; "
                "thread a Generator derived via repro.utils.rng.derive_seed",
            )
        elif leaf in _CONSTRUCTORS:
            yield self.finding(
                module,
                node,
                f"np.random.{leaf} constructs an RNG stream outside the seam; "
                "use repro.utils.rng (as_generator / spawn_generators / "
                "derive_seed) so seed derivation stays auditable",
            )
