"""Benchmark: paper Figure 8 — reversed-gradient attack, Multi-Krum defenses.

DETOX cannot be paired with Multi-Krum at q = 9 (it would need 2c + 3 = 9 > 5
groups), so that curve exists only for the baseline and ByzShield.
"""

import pytest

from benchmarks.figure_helpers import (
    check_figure_invariants,
    run_figure,
    save_figure_results,
)
from repro.experiments.accuracy import figure_scenarios


@pytest.mark.benchmark(group="figures")
def test_fig8_reversed_gradient_multikrum_defenses(benchmark, results_dir):
    detox_qs = {
        spec.attack.schedule.q
        for spec in figure_scenarios("fig8")
        if spec.pipeline.kind == "detox"
    }
    assert 9 not in detox_qs

    histories = benchmark.pedantic(run_figure, args=("fig8",), rounds=1, iterations=1)
    check_figure_invariants("fig8", histories)
    save_figure_results(
        results_dir,
        "fig8",
        "Figure 8: reversed-gradient attack, Multi-Krum-based defenses",
        histories,
    )
    assert histories["Multi-Krum, q=9"].distortion_fractions.mean() == pytest.approx(9 / 25)
    assert histories["ByzShield, q=9"].distortion_fractions.mean() == pytest.approx(0.36)
