"""The two static invariants that bit-exact replay rests on, over ``src/repro``.

RNG-001: randomness comes from ``numpy.random.Generator`` streams that
``repro.utils.rng`` builds.  Outside ``utils/rng.py`` there is no legacy
global-state draw, no stdlib ``random`` and no generator construction: one
stray process-global draw desynchronises every stream a golden trace records.

DTYPE-001: float dtypes come from ``repro.core.backend``.  Outside
``core/backend.py`` there is no float dtype literal (``np.float64``,
``dtype=float``, ``astype("float32")``, ``np.dtype(float)``): a hard-coded
float re-promotes a float32 run, and the mismatch surfaces layers later.
Integer and bool dtypes are not policy.

There are no waivers.  A value that is float64 by definition is a named
constant in the seam module (``DRAW_DTYPE``, ``CLOCK_DTYPE``); trace
digests hash each array in its own width and name no dtype.
"""

import ast
import pathlib
import textwrap

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

SEAMS = {"RNG-001": "utils/rng.py", "DTYPE-001": "core/backend.py"}

#: module-level legacy draw / global-state functions of ``numpy.random``
LEGACY_DRAWS = frozenset(
    "seed get_state set_state rand randn randint random_integers random "
    "random_sample ranf sample bytes choice shuffle permutation beta binomial "
    "chisquare dirichlet exponential gamma geometric gumbel hypergeometric "
    "laplace logistic lognormal multinomial multivariate_normal "
    "negative_binomial normal pareto poisson power rayleigh standard_cauchy "
    "standard_exponential standard_gamma standard_normal standard_t "
    "triangular uniform vonmises wald weibull zipf".split()
)
#: stream constructors that only the RNG seam may call
GENERATOR_CONSTRUCTORS = frozenset(
    "default_rng SeedSequence RandomState PCG64 Philox MT19937 SFC64".split()
)
#: ``numpy.random`` names that are types, not streams (annotations, isinstance)
RANDOM_TYPES = frozenset({"Generator", "BitGenerator"})
RNG_NAMES = LEGACY_DRAWS | GENERATOR_CONSTRUCTORS
FLOAT_ATTRS = frozenset({"float32", "float64", "float16", "float_", "double", "single"})
FLOAT_STRINGS = frozenset({"float16", "float32", "float64", "f2", "f4", "f8"})


def _chain(node):
    """``np.random.normal`` -> ``("np", "random", "normal")``; () if not name-rooted."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return (node.id, *reversed(parts)) if isinstance(node, ast.Name) else ()


def _bare_float(node):
    return (isinstance(node, ast.Name) and node.id == "float") or (
        isinstance(node, ast.Constant) and node.value in FLOAT_STRINGS
    )


def violations(tree, relpath):
    """Sorted ``(line, rule)`` pairs of one module outside its rule's seam."""
    numpy = {
        alias.asname or "numpy"
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "numpy"
    }
    found = set()
    for node in ast.walk(tree):
        chain = _chain(node.func if isinstance(node, ast.Call) else node)
        numpy_rooted = bool(chain) and chain[0] in numpy
        if isinstance(node, ast.Import):
            if any(a.name == "random" or a.name.startswith("random.") for a in node.names):
                found.add((node.lineno, "RNG-001"))
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            numpy_random = node.module == "numpy.random" and names - RANDOM_TYPES
            if node.module == "random" or numpy_random:
                found.add((node.lineno, "RNG-001"))
            if node.module == "numpy" and names & FLOAT_ATTRS:
                found.add((node.lineno, "DTYPE-001"))
        elif isinstance(node, ast.Attribute) and numpy_rooted:
            if len(chain) == 3 and chain[1] == "random" and chain[2] in RNG_NAMES:
                found.add((node.lineno, "RNG-001"))
            if len(chain) == 2 and chain[1] in FLOAT_ATTRS:
                found.add((node.lineno, "DTYPE-001"))
        elif isinstance(node, ast.Call):
            first = node.args[0] if node.args else None
            astype = isinstance(node.func, ast.Attribute) and node.func.attr == "astype"
            np_dtype = numpy_rooted and chain[1:] == ("dtype",)
            if (astype or np_dtype) and first is not None and _bare_float(first):
                found.add((node.lineno, "DTYPE-001"))
            for keyword in node.keywords:
                if keyword.arg == "dtype" and _bare_float(keyword.value):
                    found.add((keyword.value.lineno, "DTYPE-001"))
    return sorted((line, rule) for line, rule in found if SEAMS[rule] != relpath)


def relpath(path, root):
    return path.relative_to(root).as_posix()


def scan(root):
    """Every violation under ``root`` as ``relpath:line: RULE``, in path order."""
    return [
        f"{relpath(path, root)}:{line}: {rule}"
        for path in sorted(root.rglob("*.py"))
        for line, rule in violations(ast.parse(path.read_text()), relpath(path, root))
    ]


def test_the_source_tree_keeps_both_invariants_without_exceptions():
    assert all((SRC / seam).is_file() for seam in SEAMS.values())
    found = scan(SRC)
    assert found == [], "\n".join(f"src/repro/{line}" for line in found)


#: module path -> (source, the lines ``scan`` must name)
FIXTURES = {
    "attacks/custom.py": (
        """
        import numpy as np

        rng = np.random.default_rng(7)
        """,
        ["3: RNG-001"],
    ),
    "training/sampling.py": (
        """
        import random
        import numpy as np

        def draw(rng: np.random.Generator):
            return np.random.normal(size=3) + rng.standard_normal()
        """,
        ["1: RNG-001", "5: RNG-001"],
    ),
    "training/loop.py": (
        """
        import numpy as np

        a = np.zeros(3, dtype=np.float64)
        b = np.ones(3, dtype="float32").astype(float)
        c = np.dtype(float)
        d = np.zeros(3, dtype=np.int64) + np.zeros(3, dtype=bool)
        """,
        ["3: DTYPE-001", "4: DTYPE-001", "5: DTYPE-001"],
    ),
    # the seams themselves
    "utils/rng.py": (
        """
        import numpy as np

        def as_generator(seed):
            return np.random.default_rng(seed)
        """,
        [],
    ),
    "core/backend.py": ("import numpy as np\nDEFAULT_DTYPE = np.dtype(np.float64)", []),
}


@pytest.mark.parametrize("module", sorted(FIXTURES))
def test_planted_violations_are_named_by_path_and_line(tmp_path, module):
    source, expected = FIXTURES[module]
    path = tmp_path / module
    path.parent.mkdir(parents=True)
    path.write_text(textwrap.dedent(source).strip() + "\n")
    assert scan(tmp_path) == [f"{module}:{where}" for where in expected]


#: one statement per pattern (after ``import numpy as np``), and the rule it breaks
PATTERNS = [
    ("np.random.seed(0)", "RNG-001"),
    ("np.random.normal(size=3)", "RNG-001"),
    ("np.random.choice(4)", "RNG-001"),
    ("np.random.default_rng(7)", "RNG-001"),
    ("np.random.SeedSequence(7)", "RNG-001"),
    ("np.random.RandomState(7)", "RNG-001"),
    ("np.random.PCG64(7)", "RNG-001"),
    ("import random", "RNG-001"),
    ("from random import shuffle", "RNG-001"),
    ("from numpy.random import Generator, default_rng", "RNG-001"),
    ("def f(rng: np.random.Generator): return rng.normal()", None),
    ("from numpy.random import BitGenerator, Generator", None),
    ("x = np.float64(1.0)", "DTYPE-001"),
    ("x = np.double", "DTYPE-001"),
    ("from numpy import float32", "DTYPE-001"),
    ("x = y.astype(float)", "DTYPE-001"),
    ("x = y.astype('float32')", "DTYPE-001"),
    ("x = np.dtype('f8')", "DTYPE-001"),
    ("x = np.dtype(float)", "DTYPE-001"),
    ("x = np.zeros(3, dtype=float)", "DTYPE-001"),
    ("x = np.zeros(3, dtype='float64')", "DTYPE-001"),
    ("x = np.zeros(3, dtype=np.int64)", None),
    ("x = np.zeros(3, dtype=bool)", None),
    ("x = y.astype(np.int32)", None),
    ("x = np.dtype('int64')", None),
    ("x = np.zeros(3, dtype=DEFAULT_DTYPE)", None),
]


@pytest.mark.parametrize("statement, rule", PATTERNS)
def test_each_pattern_is_flagged_or_allowed(tmp_path, statement, rule):
    (tmp_path / "x.py").write_text(f"import numpy as np\n{statement}\n")
    assert scan(tmp_path) == ([f"x.py:2: {rule}"] if rule else [])
