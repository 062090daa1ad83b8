"""Benchmark: paper Figures 9–11 — K = 15 cluster (MOLS l=5, r=3), ALIE, q = 2.

Figure 9 compares median-based defenses, Figure 10 Bulyan, Figure 11
Multi-Krum, all on the smaller 15-worker cluster of the paper's appendix.
"""

import pytest

from benchmarks.figure_helpers import (
    check_figure_invariants,
    run_figure,
    save_figure_results,
)

FIGURES = {
    "fig9": "Figure 9: ALIE attack, median-based defenses (K=15)",
    "fig10": "Figure 10: ALIE attack, Bulyan-based defenses (K=15)",
    "fig11": "Figure 11: ALIE attack, Multi-Krum-based defenses (K=15)",
}


@pytest.mark.benchmark(group="figures")
@pytest.mark.parametrize("figure_id", sorted(FIGURES))
def test_fig9_to_11_k15_alie_defenses(benchmark, results_dir, figure_id):
    results = benchmark.pedantic(run_figure, args=(figure_id,), rounds=1, iterations=1)
    check_figure_invariants(figure_id, results)
    save_figure_results(results_dir, figure_id, FIGURES[figure_id], results)
    # MOLS (l=5, r=3) with q=2: exactly one of 25 file gradients is corrupted.
    assert results["ByzShield, q=2"].predicted_distortion.mean() == pytest.approx(1 / 25)
