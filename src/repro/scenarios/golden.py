"""Golden-trace capture and replay.

A golden trace is the serialized :class:`~repro.scenarios.trace.RunTrace` of
one catalog scenario, committed under ``tests/golden/``.  The regression
suite re-runs every scenario and requires a bit-exact digest match at every
round and stage; :func:`record_goldens` regenerates the files after an
*intentional* behaviour change (``repro scenario record``).

Bit-exact replay holds on the machine class the goldens were recorded on:
NumPy picks its SIMD kernels per CPU at import, and a different dispatch
level rounds some reductions differently.  So the recording writes NumPy's
version and dispatch targets beside the traces (:data:`DISPATCH_FILE`, not
a ``.json``, so it is never read as a golden), and a failed replay names
both.
"""

from __future__ import annotations

import pathlib

import numpy as np
from numpy.lib.introspect import opt_func_info

from repro.exceptions import ReproError
from repro.scenarios.catalog import get_scenario, scenario_names
from repro.scenarios.runner import run_scenario
from repro.scenarios.trace import RunTrace

__all__ = [
    "DISPATCH_FILE",
    "default_golden_dir",
    "golden_path",
    "numpy_dispatch",
    "record_goldens",
    "replay_golden",
]

DISPATCH_FILE = "numpy-dispatch.txt"
"""Where :func:`record_goldens` writes :func:`numpy_dispatch`, beside the traces."""


def numpy_dispatch() -> str:
    """NumPy's version and the SIMD targets its kernels run on this machine."""
    targets = {sig["current"] for kernel in opt_func_info().values() for sig in kernel.values()}
    return f"numpy {np.__version__}\ndispatch {' '.join(sorted(targets))}\n"


def default_golden_dir() -> pathlib.Path:
    """``tests/golden/`` relative to the repository root (best effort)."""
    here = pathlib.Path(__file__).resolve()
    for parent in here.parents:
        candidate = parent / "tests" / "golden"
        if candidate.is_dir():
            return candidate
    return pathlib.Path("tests") / "golden"


def golden_path(name: str, golden_dir: "pathlib.Path | str | None" = None) -> pathlib.Path:
    """Path of the golden trace for a scenario name."""
    base = pathlib.Path(golden_dir) if golden_dir is not None else default_golden_dir()
    return base / f"{name}.json"


def record_goldens(
    names: "list[str] | None" = None,
    golden_dir: "pathlib.Path | str | None" = None,
) -> list[pathlib.Path]:
    """Run the named scenarios (default: whole catalog) and write their
    traces.  A whole-catalog recording, or one into a directory without
    :data:`DISPATCH_FILE`, also writes :func:`numpy_dispatch` there; a subset
    leaves an existing note alone, since the other traces were recorded
    under the dispatch it names."""
    base = pathlib.Path(golden_dir) if golden_dir is not None else default_golden_dir()
    base.mkdir(parents=True, exist_ok=True)
    note = base / DISPATCH_FILE
    if names is None or not note.exists():
        note.write_text(numpy_dispatch())
    written: list[pathlib.Path] = []
    for name in names if names is not None else scenario_names():
        result = run_scenario(get_scenario(name))
        path = golden_path(name, base)
        result.trace.write_json_file(path)
        written.append(path)
    return written


def replay_golden(
    name: str, golden_dir: "pathlib.Path | str | None" = None
) -> RunTrace:
    """Re-run a catalog scenario and assert it matches its golden trace.

    Returns the freshly produced trace; raises
    :class:`~repro.scenarios.trace.TraceMismatch` on any divergence and
    :class:`~repro.exceptions.ReproError` when the golden file is missing.
    """
    path = golden_path(name, golden_dir)
    if not path.exists():
        raise ReproError(
            f"no golden trace for scenario {name!r} at {path}; run "
            f"'repro scenario record --name {name}' to create it"
        )
    golden = RunTrace.from_json_file(path)
    result = run_scenario(get_scenario(name))
    result.trace.assert_matches(golden)
    return result.trace
