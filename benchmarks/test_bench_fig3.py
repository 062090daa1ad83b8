"""Benchmark: paper Figure 3 — ALIE attack, Bulyan-based defenses, K = 25.

Curves: baseline Bulyan and ByzShield (vote + median), at q = 3 and q = 5.
The paper's point is that Bulyan's ``n >= 4q + 3`` requirement caps how far it
can be pushed, while ByzShield keeps its small distortion fraction.
"""

import pytest

from benchmarks.figure_helpers import (
    check_figure_invariants,
    run_figure,
    save_figure_results,
)


@pytest.mark.benchmark(group="figures")
def test_fig3_alie_bulyan_defenses(benchmark, results_dir):
    results = benchmark.pedantic(run_figure, args=("fig3",), rounds=1, iterations=1)
    check_figure_invariants("fig3", results)
    save_figure_results(
        results_dir, "fig3", "Figure 3: ALIE attack, Bulyan-based defenses", results
    )
    assert results["Bulyan, q=5"].predicted_distortion.mean() == pytest.approx(0.2)
    assert results["ByzShield, q=5"].predicted_distortion.mean() == pytest.approx(0.08)
