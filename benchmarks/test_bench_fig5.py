"""Benchmark: paper Figure 5 — constant attack, signSGD-based defenses, K = 25.

The constant attack is paired with sign-majority defenses because sign flips
alone (reversed gradient) rarely change a coordinate's sign majority; the
constant payload does.
"""

import pytest

from benchmarks.figure_helpers import (
    check_figure_invariants,
    run_figure,
    save_figure_results,
)


@pytest.mark.benchmark(group="figures")
def test_fig5_constant_signsgd_defenses(benchmark, results_dir):
    results = benchmark.pedantic(run_figure, args=("fig5",), rounds=1, iterations=1)
    check_figure_invariants("fig5", results)
    save_figure_results(
        results_dir, "fig5", "Figure 5: constant attack, signSGD-based defenses", results
    )
    assert results["signSGD, q=3"].predicted_distortion.mean() == pytest.approx(3 / 25)
    assert results["ByzShield, q=5"].predicted_distortion.mean() == pytest.approx(0.08)
