#!/usr/bin/env python
"""Exploring the task-assignment design space (paper Sections 4 and 5).

ByzShield's central claim is that *which* redundant assignment you pick
matters: two placements with the same computational load and replication can
have very different worst-case robustness.  This example walks the design
space:

1. builds MOLS, Ramanujan Case 1/2, FRC and random biregular placements;
2. computes the spectrum (µ₁) of each and the expansion bound γ;
3. runs the omniscient worst-case distortion analysis across q and prints the
   resulting ε̂ curves — random placements drift toward FRC-like fragility
   while the expander constructions stay at the theoretical optimum.

Run with::

    python examples/assignment_design_space.py
"""

from __future__ import annotations

from repro import (
    FRCAssignment,
    MOLSAssignment,
    RamanujanAssignment,
    RandomAssignment,
    max_distortion,
)
from repro.experiments.report import format_rows
from repro.graphs import second_eigenvalue


def main() -> None:
    load, replication = 5, 3
    num_workers = load * replication          # 15
    num_files = load * load                   # 25

    schemes = {
        "MOLS (l=5, r=3)": MOLSAssignment(load=load, replication=replication),
        "Ramanujan case 1 (m=3, s=5)": RamanujanAssignment(m=replication, s=load),
        "Ramanujan case 2 (m=5, s=5)": RamanujanAssignment(m=5, s=5),
        "Random biregular": RandomAssignment(
            num_workers=num_workers,
            num_files=num_files,
            replication=replication,
            seed=1,
        ),
        "FRC / DETOX grouping": FRCAssignment(
            num_workers=num_workers, replication=replication
        ),
    }

    # ------------------------------------------------------------------ #
    # 1. Geometry and spectra.
    # ------------------------------------------------------------------ #
    geometry = []
    for label, scheme in schemes.items():
        assignment = scheme.assignment
        geometry.append(
            {
                "scheme": label,
                "K": assignment.num_workers,
                "f": assignment.num_files,
                "l": assignment.computational_load,
                "r": assignment.replication,
                "mu1": second_eigenvalue(assignment),
            }
        )
    print(format_rows(geometry, title="Assignment geometries and second eigenvalues"))
    print()
    print(
        "The MOLS and Ramanujan graphs achieve µ₁ = 1/r, the optimum for a "
        "biregular bipartite graph; FRC's disconnected groups have µ₁ = 1 (no "
        "expansion at all), which is exactly why an omniscient adversary can "
        "concentrate its corruptions there."
    )
    print()

    # ------------------------------------------------------------------ #
    # 2. Worst-case distortion across q.
    # ------------------------------------------------------------------ #
    rows = []
    for q in range(2, 8):
        row: dict[str, float] = {"q": q}
        for label, scheme in schemes.items():
            result = max_distortion(scheme.assignment, q)
            row[label] = result.epsilon
        rows.append(row)
    print(
        format_rows(
            rows,
            title="Worst-case distortion fraction ε̂ under an omniscient adversary",
        )
    )
    print()
    print(
        "Takeaway: with the same storage overhead (r = 3), the expander-based "
        "placements corrupt the fewest file gradients under the worst-case "
        "attack; FRC is consistently the most fragile, and a random placement "
        "sits in between depending on the draw."
    )


if __name__ == "__main__":
    main()
