"""Helpers shared by the accuracy-figure benchmarks (Figures 2–11).

Each figure benchmark trains every curve of the figure at the ``small`` scale
of the synthetic substrate (see ``repro.experiments.accuracy.SCALE_PRESETS``),
checks structural invariants (every curve produced a full accuracy series, the
realized distortion fraction matches the static worst-case analysis) and saves
both the accuracy-versus-iteration series and a per-curve summary under
``benchmarks/results/``.
"""

from __future__ import annotations

import os
import pathlib

import numpy as np

from benchmarks.conftest import save_text
from repro.experiments.accuracy import figure_scenarios, run_accuracy_figure
from repro.experiments.report import format_rows, format_series
from repro.training.history import TrainingHistory

#: scale can be overridden (e.g. BYZSHIELD_BENCH_SCALE=medium) for longer runs
BENCH_SCALE = os.environ.get("BYZSHIELD_BENCH_SCALE", "small")
BENCH_SEED = int(os.environ.get("BYZSHIELD_BENCH_SEED", "0"))


def run_figure(figure_id: str) -> dict[str, TrainingHistory]:
    """Train every curve of ``figure_id`` at the benchmark scale."""
    return run_accuracy_figure(figure_id, scale=BENCH_SCALE, seed=BENCH_SEED)


def summarize(histories: dict[str, TrainingHistory]) -> list[dict[str, float]]:
    """Per-curve summary rows (final/best accuracy, mean distortion)."""
    rows = []
    for label, history in histories.items():
        rows.append(
            {
                "curve": label,
                "final_accuracy": history.final_accuracy,
                "best_accuracy": history.best_accuracy,
                "mean_accuracy": history.mean_accuracy(),
                "mean_distortion": float(history.distortion_fractions.mean()),
                "final_train_loss": float(history.train_losses[-1]),
            }
        )
    return rows


def save_figure_results(
    results_dir: pathlib.Path, name: str, title: str, histories: dict[str, TrainingHistory]
) -> None:
    """Render the accuracy curves and the summary table to a results file."""
    series = {label: history.accuracy_series() for label, history in histories.items()}
    text = (
        format_series(series, title=f"{title} — top-1 test accuracy vs iteration")
        + "\n\n"
        + format_rows(summarize(histories), title=f"{title} — per-curve summary")
    )
    save_text(results_dir, name, text)


def check_figure_invariants(figure_id: str, histories: dict[str, TrainingHistory]) -> None:
    """Structural checks every figure must satisfy regardless of scale."""
    specs = figure_scenarios(figure_id, scale=BENCH_SCALE, seed=BENCH_SEED)
    assert set(histories) == {spec.name for spec in specs}
    for label, history in histories.items():
        iterations, accuracies = history.accuracy_series()
        assert iterations.size > 0, label
        assert np.all((0.0 <= accuracies) & (accuracies <= 1.0)), label
        assert np.all(np.isfinite(history.train_losses)), label
    # ByzShield's realized distortion fraction never exceeds the competing
    # schemes' at the same q (the structural advantage behind the figures).
    by_q: dict[int, dict[str, float]] = {}
    for spec in specs:
        history = histories[spec.name]
        by_q.setdefault(spec.attack.schedule.q, {})[spec.pipeline.kind] = float(
            history.distortion_fractions.mean()
        )
    for q, fractions in by_q.items():
        if "byzshield" in fractions:
            for other, value in fractions.items():
                if other != "byzshield":
                    assert fractions["byzshield"] <= value + 1e-9, (q, fractions)
