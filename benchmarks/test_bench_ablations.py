"""Benchmark: ablations beyond the paper's tables.

Two ablations motivated by DESIGN.md:

* **Assignment structure** — is the expander placement doing the work, or is
  any redundancy enough?  Compares the worst-case distortion fraction of MOLS
  and Ramanujan placements against random biregular placements with identical
  ``(K, f, l, r)`` and against FRC grouping.
* **Post-vote aggregator** — the conclusion's remark that ByzShield can be
  paired with non-trivial aggregation rules: trains ByzShield under ALIE with
  median, trimmed mean, Multi-Krum, Bulyan and geometric median.
"""

import pytest

from benchmarks.conftest import save_text
from repro.experiments.ablations import (
    aggregator_ablation,
    assignment_structure_ablation,
)
from repro.experiments.report import format_rows


@pytest.mark.benchmark(group="ablations")
def test_assignment_structure_ablation(benchmark, results_dir):
    rows = benchmark.pedantic(
        assignment_structure_ablation,
        kwargs={"q_values": range(2, 8), "num_random_draws": 5},
        rounds=1,
        iterations=1,
    )
    save_text(
        results_dir,
        "ablation_assignment",
        format_rows(rows, title="Assignment-structure ablation (K=15, f=25, l=5, r=3)"),
    )
    for row in rows:
        # The MOLS and Ramanujan Case 1 graphs have identical worst-case ε̂.
        assert row["epsilon_mols"] == pytest.approx(row["epsilon_ramanujan"], abs=1e-9)
        # The structured placements are never worse than the FRC grouping and
        # never worse than the unluckiest random placement.
        assert row["epsilon_mols"] <= row["epsilon_frc"] + 1e-9
        assert row["epsilon_mols"] <= row["epsilon_random_worst"] + 1e-9


@pytest.mark.benchmark(group="ablations")
def test_aggregator_ablation(benchmark, results_dir):
    rows = benchmark.pedantic(
        aggregator_ablation, kwargs={"num_byzantine": 5, "scale_iterations": 40}, rounds=1, iterations=1
    )
    save_text(
        results_dir,
        "ablation_aggregator",
        format_rows(rows, title="ByzShield post-vote aggregator ablation (ALIE, q=5, K=25)"),
    )
    names = {row["aggregator"] for row in rows}
    assert names == {"median", "trimmed_mean", "multi_krum", "bulyan", "geometric_median"}
    for row in rows:
        assert 0.0 <= row["final_accuracy"] <= 1.0
        # Every variant sees the same corrupted-vote fraction (2/25).
        assert row["mean_predicted_distortion"] == pytest.approx(0.08)
