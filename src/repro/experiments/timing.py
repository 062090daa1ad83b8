"""Per-iteration time breakdown (paper Figure 12).

The paper reports, for the ALIE / q=3 / K=25 experiment, the average
per-iteration time split into computation, communication and aggregation for
baseline median, ByzShield and DETOX median-of-means.  The analytic cost
model of :mod:`repro.cluster.timing` reproduces the breakdown's *shape*:
ByzShield pays ``l×`` the communication (one message per file) and the largest
aggregation cost, and both redundancy schemes pay ``r×`` the baseline's
computation.
"""

from __future__ import annotations

from repro.assignment.baseline import BaselineAssignment
from repro.assignment.frc import FRCAssignment
from repro.assignment.ramanujan import RamanujanAssignment
from repro.cluster.timing import CostModel, estimate_iteration_timing

__all__ = ["generate_figure12"]


def generate_figure12(
    batch_size: int = 750,
    model_dim: int = 11_173_962,
    cost_model: CostModel | None = None,
) -> list[dict[str, float]]:
    """Estimated per-iteration time breakdown for the paper's three schemes.

    Parameters
    ----------
    batch_size:
        Global batch size (the paper uses 750).
    model_dim:
        Number of model parameters; the default is ResNet-18's parameter
        count, matching the paper's workload even though our simulator trains
        a smaller stand-in model.
    cost_model:
        Cost coefficients; defaults to :class:`CostModel` defaults.
    """
    rows: list[dict[str, float]] = []

    baseline = BaselineAssignment(num_workers=25).assignment
    timing = estimate_iteration_timing(
        baseline,
        batch_size,
        model_dim,
        aggregator_name="median",
        uses_majority_vote=False,
        cost_model=cost_model,
    )
    rows.append({"scheme": "Median", **timing.as_dict()})

    byzshield = RamanujanAssignment(m=5, s=5).assignment
    timing = estimate_iteration_timing(
        byzshield,
        batch_size,
        model_dim,
        aggregator_name="median",
        uses_majority_vote=True,
        cost_model=cost_model,
    )
    rows.append({"scheme": "ByzShield", **timing.as_dict()})

    detox = FRCAssignment(num_workers=25, replication=5).assignment
    timing = estimate_iteration_timing(
        detox,
        batch_size,
        model_dim,
        aggregator_name="median_of_means",
        uses_majority_vote=True,
        cost_model=cost_model,
    )
    rows.append({"scheme": "DETOX-MoM", **timing.as_dict()})
    return rows
