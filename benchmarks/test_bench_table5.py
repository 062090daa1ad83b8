"""Benchmark: paper Table 5 — MOLS (K, f, l, r) = (35, 49, 7, 5), q = 3..13.

Every row is exact: the prefix-tree search of ``core/distortion.py`` scores all
C(35, q) Byzantine sets, up to C(35, 13) ≈ 1.5·10⁹ at the last row (about
135 s for the whole table on a 2-core x86 machine; see EXPERIMENTS.md), and
reproduces every published c_max.
"""

import pytest

from benchmarks.conftest import save_text
from repro.experiments.paper_reference import TABLE5
from repro.experiments.report import format_rows
from repro.experiments.tables import generate_table5


@pytest.mark.benchmark(group="tables")
def test_table5_distortion_fractions(benchmark, results_dir):
    rows = benchmark.pedantic(generate_table5, rounds=1, iterations=1)
    save_text(results_dir, "table5", format_rows(rows, title="Table 5 (MOLS l=7, r=5)"))
    assert [row["q"] for row in rows] == sorted(TABLE5)
    for row in rows:
        q = row["q"]
        c_max, eps, eps_base, eps_frc, gamma = TABLE5[q]
        assert row["c_max"] == c_max, f"q={q}"
        assert row["epsilon_byzshield"] == pytest.approx(eps, abs=0.006)
        assert row["epsilon_frc"] == pytest.approx(eps_frc, abs=0.005)
        assert row["gamma"] == pytest.approx(gamma, abs=0.01)
        # c_max never exceeds the expansion bound.
        assert row["c_max"] <= row["gamma"] + 1e-9
