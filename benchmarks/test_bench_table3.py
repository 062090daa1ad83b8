"""Benchmark: paper Table 3 — MOLS (K, f, l, r) = (15, 25, 5, 3), q = 2..7.

Regenerates the distortion-fraction table with the exact worst-case search
and checks every row (c_max, ε̂ for ByzShield / baseline / FRC, and γ) against the
published values.
"""

import pytest

from benchmarks.conftest import save_text
from repro.experiments.paper_reference import TABLE3
from repro.experiments.report import format_rows
from repro.experiments.tables import generate_table3


@pytest.mark.benchmark(group="tables")
def test_table3_distortion_fractions(benchmark, results_dir):
    rows = benchmark.pedantic(generate_table3, rounds=1, iterations=1)
    save_text(results_dir, "table3", format_rows(rows, title="Table 3 (MOLS l=5, r=3)"))
    assert [row["q"] for row in rows] == sorted(TABLE3)
    for row in rows:
        c_max, eps, eps_base, eps_frc, gamma = TABLE3[row["q"]]
        assert row["c_max"] == c_max
        assert row["epsilon_byzshield"] == pytest.approx(eps, abs=0.005)
        assert row["epsilon_baseline"] == pytest.approx(eps_base, abs=0.005)
        assert row["epsilon_frc"] == pytest.approx(eps_frc, abs=0.005)
        assert row["gamma"] == pytest.approx(gamma, abs=0.01)
