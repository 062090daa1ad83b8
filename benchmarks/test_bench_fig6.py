"""Benchmark: paper Figure 6 — reversed-gradient attack, median defenses, q in {3, 9}.

The q = 9 case is the one where DETOX's grouping breaks (ε̂ = 0.6 of its group
votes are corrupted under the omniscient selection) while ByzShield keeps
ε̂ = 0.36 and keeps training.
"""

import pytest

from benchmarks.figure_helpers import (
    check_figure_invariants,
    run_figure,
    save_figure_results,
)


@pytest.mark.benchmark(group="figures")
def test_fig6_reversed_gradient_median_defenses(benchmark, results_dir):
    results = benchmark.pedantic(run_figure, args=("fig6",), rounds=1, iterations=1)
    check_figure_invariants("fig6", results)
    save_figure_results(
        results_dir,
        "fig6",
        "Figure 6: reversed-gradient attack, median-based defenses",
        results,
    )
    assert results["ByzShield, q=9"].predicted_distortion.mean() == pytest.approx(0.36)
    assert results["DETOX-MoM, q=9"].predicted_distortion.mean() == pytest.approx(0.6)
    # DETOX's majority is overwhelmed at q=9: ByzShield must end up at least as
    # accurate as DETOX under the same attack.
    assert (
        results["ByzShield, q=9"].trace.final_accuracy
        >= results["DETOX-MoM, q=9"].trace.final_accuracy - 0.05
    )
