"""Per-iteration cost model (reproduces the shape of paper Figure 12).

The paper measures, per training iteration, the time spent on (i) worker
computation, (ii) worker-to-PS communication and (iii) PS-side aggregation,
for baseline median, ByzShield and DETOX median-of-means.  We cannot measure
EC2 wall-clock offline, so the cost model below assigns analytic costs with
coefficients calibrated to commodity hardware:

* computation: each worker processes ``l`` files of ``b/f`` samples, i.e.
  ``r·b/K`` samples per iteration (``b/K`` for the baseline); workers run in
  parallel, so iteration time is the per-worker time;
* communication: ByzShield workers transmit ``l`` separate ``d``-dimensional
  gradients, DETOX and baseline workers transmit one;
* aggregation: majority voting is linear in the number of returned copies
  (``f·r·d``), coordinate-wise median costs ``O(n·log n)`` per dimension over
  its ``n`` inputs, Krum-family rules cost ``O(n²·d)``.

Absolute numbers are arbitrary (they scale with the coefficients); the
*relative* breakdown — ByzShield pays the largest communication and
aggregation cost, redundancy schemes pay ``r×`` the baseline's computation —
is what Figure 12 shows and what the benchmark reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.graphs.bipartite import BipartiteAssignment

__all__ = ["CostModel", "IterationTiming", "estimate_iteration_timing"]


@dataclass(frozen=True)
class CostModel:
    """Coefficients of the analytic cost model (seconds per unit work).

    Attributes
    ----------
    compute_per_sample_per_param:
        Worker-side cost of one sample's forward/backward pass per model
        parameter.
    network_per_float:
        Transfer cost per float sent from a worker to the PS.
    network_latency_per_message:
        Fixed per-message overhead (each file gradient is one message).
    aggregation_per_float_op:
        PS-side cost of one elementary aggregation operation on one float.
    """

    compute_per_sample_per_param: float = 2.0e-9
    network_per_float: float = 4.0e-9
    network_latency_per_message: float = 2.0e-3
    aggregation_per_float_op: float = 1.0e-9

    def __post_init__(self) -> None:
        for name in (
            "compute_per_sample_per_param",
            "network_per_float",
            "network_latency_per_message",
            "aggregation_per_float_op",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")


@dataclass(frozen=True)
class IterationTiming:
    """Estimated per-iteration time breakdown (seconds)."""

    computation: float
    communication: float
    aggregation: float

    @property
    def total(self) -> float:
        """Total estimated iteration time."""
        return self.computation + self.communication + self.aggregation

    def as_dict(self) -> dict[str, float]:
        """Dictionary form used by the experiment report."""
        return {
            "computation": self.computation,
            "communication": self.communication,
            "aggregation": self.aggregation,
            "total": self.total,
        }


def _aggregation_ops(aggregator_name: str, num_votes: int, dim: int) -> float:
    """Elementary float operations of the second-stage aggregation."""
    n = max(int(num_votes), 1)
    if aggregator_name in ("mean", "signsgd"):
        return n * dim
    if aggregator_name in ("median", "trimmed_mean", "median_of_means"):
        return n * max(np.log2(n), 1.0) * dim
    if aggregator_name in ("krum", "multi_krum", "bulyan"):
        return n * n * dim + n * max(np.log2(n), 1.0)
    if aggregator_name == "geometric_median":
        return 20.0 * n * dim
    # Unknown aggregators get the median-like cost.
    return n * max(np.log2(n), 1.0) * dim


def estimate_iteration_timing(
    assignment: BipartiteAssignment,
    batch_size: int,
    model_dim: int,
    aggregator_name: str = "median",
    uses_majority_vote: bool = True,
    num_byzantine: int = 0,
    cost_model: CostModel | None = None,
) -> IterationTiming:
    """Estimate the per-iteration time breakdown for a scheme.

    Parameters
    ----------
    assignment:
        The scheme's worker/file assignment (baseline = identity graph).
    batch_size:
        Global batch size ``b``.
    model_dim:
        Number of model parameters ``d``.
    aggregator_name:
        Registry name of the second-stage robust aggregator.
    uses_majority_vote:
        True for redundancy schemes (ByzShield, DETOX, DRACO) that majority
        vote the file copies before the robust stage.
    num_byzantine:
        Declared ``q``.  The model ignores it: no cost formula depends on
        ``q`` yet.
    cost_model:
        Cost coefficients; defaults to :class:`CostModel` defaults.
    """
    if batch_size < 1 or model_dim < 1:
        raise ConfigurationError("batch_size and model_dim must be positive")
    cm = cost_model if cost_model is not None else CostModel()
    K = assignment.num_workers
    f = assignment.num_files
    l = assignment.computational_load
    r = assignment.replication
    samples_per_file = batch_size / f

    # Workers run in parallel; per-worker load is l files of b/f samples.
    computation = l * samples_per_file * model_dim * cm.compute_per_sample_per_param

    # Each worker sends l gradient messages of d floats (baseline: l = 1).
    communication = l * (
        model_dim * cm.network_per_float + cm.network_latency_per_message
    )

    aggregation = 0.0
    if uses_majority_vote:
        # Majority voting touches every returned copy of every file.
        aggregation += f * r * model_dim * cm.aggregation_per_float_op
        second_stage_votes = f
    else:
        second_stage_votes = K
    aggregation += (
        _aggregation_ops(aggregator_name, second_stage_votes, model_dim)
        * cm.aggregation_per_float_op
    )
    return IterationTiming(
        computation=float(computation),
        communication=float(communication),
        aggregation=float(aggregation),
    )
