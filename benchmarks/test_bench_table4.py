"""Benchmark: paper Table 4 — Ramanujan Case 2 (K, f, l, r) = (25, 25, 5, 5), q = 3..12.

Every row is computed with the exact worst-case search (the largest search
space is C(25, 12) ≈ 5.2M Byzantine sets, about 0.2 s) and compared against the
published values.
"""

import pytest

from benchmarks.conftest import save_text
from repro.experiments.paper_reference import TABLE4
from repro.experiments.report import format_rows
from repro.experiments.tables import generate_table4


@pytest.mark.benchmark(group="tables")
def test_table4_distortion_fractions(benchmark, results_dir):
    rows = benchmark.pedantic(generate_table4, rounds=1, iterations=1)
    save_text(
        results_dir, "table4", format_rows(rows, title="Table 4 (Ramanujan Case 2, r=l=5)")
    )
    assert [row["q"] for row in rows] == sorted(TABLE4)
    for row in rows:
        c_max, eps, eps_base, eps_frc, gamma = TABLE4[row["q"]]
        assert row["c_max"] == c_max
        assert row["epsilon_byzshield"] == pytest.approx(eps, abs=0.005)
        assert row["epsilon_baseline"] == pytest.approx(eps_base, abs=0.005)
        assert row["epsilon_frc"] == pytest.approx(eps_frc, abs=0.005)
        assert row["gamma"] == pytest.approx(gamma, abs=0.01)
