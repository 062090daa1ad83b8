"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and saves a
plain-text rendering under ``benchmarks/results/`` so the numbers can be
inspected (and compared against EXPERIMENTS.md) after a run.

Everything collected from this directory is marked ``bench`` and deselected
by default (``addopts = -m "not bench"`` in pyproject.toml), keeping tier-1
fast; CI runs the benchmarks in a dedicated job with ``-m bench``.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
_BENCH_DIR = pathlib.Path(__file__).parent.resolve()

# The tests' oracles (``reference_vote``) are the benchmarks' oracles too:
# one copy, imported as a plain module from ``tests/``.
sys.path.insert(0, str(_BENCH_DIR.parent / "tests"))


def pytest_collection_modifyitems(config, items):
    """Tag every test under benchmarks/ with the ``bench`` marker."""
    for item in items:
        if _BENCH_DIR in pathlib.Path(str(item.fspath)).resolve().parents:
            item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    """Directory receiving the rendered tables/series produced by benchmarks."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def save_text(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Write one benchmark's rendered output to ``benchmarks/results/<name>.txt``."""
    (results_dir / f"{name}.txt").write_text(text + "\n")
