#!/usr/bin/env python
"""Quickstart: ByzShield's task assignment and distortion analysis in 60 seconds.

This example mirrors the paper's Example 1 (Table 2) and Table 3:

1. build the MOLS-based assignment with computational load l = 5 and
   replication r = 3 (K = 15 workers, f = 25 files);
2. inspect its structure (who stores what, the spectrum of the normalized
   bi-adjacency matrix);
3. run the omniscient worst-case distortion analysis for a range of Byzantine
   budgets q, reproducing the paper's Table 3 comparison against the baseline
   and FRC (DETOX/DRACO) placements.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import MOLSAssignment, distortion_comparison_table, max_distortion
from repro.experiments.report import format_rows
from repro.graphs import gram_spectrum, second_eigenvalue


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Build the assignment of the paper's Example 1.
    # ------------------------------------------------------------------ #
    scheme = MOLSAssignment(load=5, replication=3)
    assignment = scheme.assignment
    print("ByzShield MOLS assignment")
    print(f"  workers K          = {assignment.num_workers}")
    print(f"  files   f          = {assignment.num_files}")
    print(f"  load    l          = {assignment.computational_load}")
    print(f"  replication r      = {assignment.replication}")
    print()

    # The file placement — this is exactly Table 2 of the paper.
    print("File placement (paper Table 2):")
    for worker, files in assignment.worker_file_table():
        print(f"  U{worker:<2d} stores files {list(files)}")
    print()

    # ------------------------------------------------------------------ #
    # 2. Spectral properties: the graph is an optimal expander (µ₁ = 1/r).
    # ------------------------------------------------------------------ #
    eigenvalues = gram_spectrum(assignment)
    print(f"Second eigenvalue µ₁ of A·Aᵀ = {second_eigenvalue(assignment):.4f} "
          f"(theory: 1/r = {1 / assignment.replication:.4f})")
    print(f"Top five eigenvalues: {[round(float(v), 4) for v in eigenvalues[:5]]}")
    print()

    # ------------------------------------------------------------------ #
    # 3. Worst-case distortion analysis (paper Table 3).
    # ------------------------------------------------------------------ #
    result = max_distortion(assignment, num_byzantine=3)
    print(
        f"Omniscient adversary with q=3 corrupts c_max={result.c_max} of "
        f"{assignment.num_files} file gradients (ε̂ = {result.epsilon:.2f}), e.g. by "
        f"controlling workers {list(result.byzantine_workers)}"
    )
    print()

    rows = distortion_comparison_table(assignment, range(2, 8))
    print(format_rows(rows, title="Paper Table 3: ByzShield vs baseline vs FRC"))


if __name__ == "__main__":
    main()
