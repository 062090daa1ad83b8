"""Experiment generators reproducing every table and figure of the paper.

* :mod:`repro.experiments.tables` — distortion-fraction Tables 3–6.
* :mod:`repro.experiments.accuracy` — deep-learning accuracy Figures 2–11.
* :mod:`repro.experiments.timing` — per-iteration time breakdown, Figure 12.
* :mod:`repro.experiments.bounds` — Section 5.1/5.2 bound checks.
* :mod:`repro.experiments.ablations` — extra ablations (assignment structure,
  post-vote aggregator choice) motivated by the paper's design discussion.
* :mod:`repro.experiments.paper_reference` — the numbers published in the
  paper, for side-by-side comparison in EXPERIMENTS.md and the benchmarks.
"""

from repro.experiments import paper_reference
from repro.experiments.ablations import (
    assignment_structure_ablation,
    aggregator_ablation,
)
from repro.experiments.accuracy import (
    available_figures,
    figure_scenarios,
    run_accuracy_figure,
)
from repro.experiments.bounds import bound_tightness_table, claim2_verification_table
from repro.experiments.report import format_rows, rows_to_csv
from repro.experiments.tables import (
    generate_table3,
    generate_table4,
    generate_table5,
    generate_table6,
    generate_distortion_table,
)
from repro.experiments.timing import generate_figure12

__all__ = [
    "generate_table3",
    "generate_table4",
    "generate_table5",
    "generate_table6",
    "generate_distortion_table",
    "available_figures",
    "figure_scenarios",
    "run_accuracy_figure",
    "generate_figure12",
    "bound_tightness_table",
    "claim2_verification_table",
    "assignment_structure_ablation",
    "aggregator_ablation",
    "format_rows",
    "rows_to_csv",
    "paper_reference",
]
