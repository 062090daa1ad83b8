"""Benchmark: paper Figure 7 — reversed-gradient attack, Bulyan defenses.

Bulyan cannot be applied at q = 9 (it would need 4q + 3 = 39 > 25 votes), so
that curve exists only for ByzShield — the same asymmetry as the paper.
"""

import pytest

from benchmarks.figure_helpers import (
    check_figure_invariants,
    run_figure,
    save_figure_results,
)
from repro.experiments.accuracy import figure_scenarios


@pytest.mark.benchmark(group="figures")
def test_fig7_reversed_gradient_bulyan_defenses(benchmark, results_dir):
    # The q=9 configuration is only present for ByzShield (Bulyan inapplicable).
    bulyan_qs = {
        spec.attack.schedule.q
        for spec in figure_scenarios("fig7")
        if spec.pipeline.aggregator == "bulyan"
    }
    assert 9 not in bulyan_qs

    results = benchmark.pedantic(run_figure, args=("fig7",), rounds=1, iterations=1)
    check_figure_invariants("fig7", results)
    save_figure_results(
        results_dir,
        "fig7",
        "Figure 7: reversed-gradient attack, Bulyan-based defenses",
        results,
    )
    assert results["ByzShield, q=9"].predicted_distortion.mean() == pytest.approx(0.36)
