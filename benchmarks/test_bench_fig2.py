"""Benchmark: paper Figure 2 — ALIE attack, median-based defenses, K = 25.

Curves: baseline coordinate-wise median, ByzShield (Ramanujan Case 2, r=l=5)
with median, and DETOX with median-of-means, each at q = 3 and q = 5, all
under the omniscient worst-case Byzantine selection.
"""

import pytest

from benchmarks.figure_helpers import (
    check_figure_invariants,
    run_figure,
    save_figure_results,
)


@pytest.mark.benchmark(group="figures")
def test_fig2_alie_median_defenses(benchmark, results_dir):
    results = benchmark.pedantic(run_figure, args=("fig2",), rounds=1, iterations=1)
    check_figure_invariants("fig2", results)
    save_figure_results(
        results_dir, "fig2", "Figure 2: ALIE attack, median-based defenses", results
    )
    # ByzShield corrupts 1/25 (q=3) and 2/25 (q=5) of the file gradients,
    # versus 0.2 for DETOX's grouping under the omniscient attack.
    assert results["ByzShield, q=3"].predicted_distortion.mean() == pytest.approx(0.04)
    assert results["ByzShield, q=5"].predicted_distortion.mean() == pytest.approx(0.08)
    assert results["DETOX-MoM, q=5"].predicted_distortion.mean() == pytest.approx(0.2)
