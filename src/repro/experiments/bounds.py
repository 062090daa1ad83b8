"""Checks of the analytic bounds (paper Sections 5.1 and 5.2).

Two small studies back the paper's theory section:

* :func:`bound_tightness_table` — how close the expansion bound ``γ`` (Claim 1
  via Lemma 1) is to the simulated worst-case ``c_max``; the paper concludes
  "γ is a very accurate worst-case approximation of c_max".
* :func:`claim2_verification_table` — the exact small-``q`` values of Claim 2
  (``q <= r``) versus simulation, for both the MOLS and Ramanujan schemes.
"""

from __future__ import annotations

from repro.assignment.base import AssignmentScheme
from repro.assignment.mols import MOLSAssignment
from repro.core.distortion import claim2_exact_c_max, max_distortion
from repro.graphs.expansion import mols_epsilon_upper_bound

__all__ = ["bound_tightness_table", "claim2_verification_table"]


def bound_tightness_table(
    q_values: "list[int] | range | None" = None,
) -> list[dict[str, float]]:
    """Simulated ``c_max`` versus the ``γ`` bound and the closed-form ``ε̂`` bound.

    Runs on the Table 3 configuration (MOLS ``l=5, r=3``).
    """
    assignment = MOLSAssignment(load=5, replication=3).assignment
    if q_values is None:
        q_values = range(2, assignment.replication * 2 + 2)
    rows: list[dict[str, float]] = []
    for q in q_values:
        result = max_distortion(assignment, q)
        closed_form = mols_epsilon_upper_bound(
            q, assignment.computational_load, assignment.replication
        )
        rows.append(
            {
                "q": int(q),
                "c_max": int(result.c_max),
                "epsilon": result.epsilon,
                "gamma": result.gamma,
                "gamma_over_f": result.gamma / assignment.num_files,
                "closed_form_epsilon_bound": closed_form,
                "bound_satisfied": bool(result.c_max <= result.gamma + 1e-9),
            }
        )
    return rows


def claim2_verification_table(scheme: AssignmentScheme | None = None) -> list[dict[str, float]]:
    """Claim 2's exact ``c_max`` for ``q <= r`` versus the simulated optimum."""
    scheme = scheme if scheme is not None else MOLSAssignment(load=5, replication=3)
    assignment = scheme.assignment
    r = assignment.replication
    rows: list[dict[str, float]] = []
    for q in range(0, r + 1):
        simulated = max_distortion(assignment, q)
        rows.append(
            {
                "q": q,
                "claim2_c_max": claim2_exact_c_max(q, r),
                "simulated_c_max": int(simulated.c_max),
                "match": bool(claim2_exact_c_max(q, r) == simulated.c_max),
            }
        )
    return rows
