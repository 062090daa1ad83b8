"""Benchmark: paper Figure 4 — ALIE attack, Multi-Krum-based defenses, K = 25."""

import pytest

from benchmarks.figure_helpers import (
    check_figure_invariants,
    run_figure,
    save_figure_results,
)


@pytest.mark.benchmark(group="figures")
def test_fig4_alie_multikrum_defenses(benchmark, results_dir):
    results = benchmark.pedantic(run_figure, args=("fig4",), rounds=1, iterations=1)
    check_figure_invariants("fig4", results)
    save_figure_results(
        results_dir, "fig4", "Figure 4: ALIE attack, Multi-Krum-based defenses", results
    )
    assert results["Multi-Krum, q=5"].predicted_distortion.mean() == pytest.approx(0.2)
    assert results["ByzShield, q=3"].predicted_distortion.mean() == pytest.approx(0.04)
