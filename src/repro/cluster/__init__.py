"""Simulated PS/worker cluster.

The paper runs on an MPI cluster of EC2 instances; offline we simulate the
cluster in-process (see DESIGN.md).  This package holds what a round is
timed and perturbed by: the event-driven collect (:mod:`~repro.cluster.events`),
the benign fault models (:mod:`~repro.cluster.faults`) and the explicit cost
model behind the per-iteration time breakdown of Figure 12
(:mod:`~repro.cluster.timing`).  The round itself — workers, cluster and
parameter server — is :mod:`repro.training.trainer`.
"""

from repro.cluster.timing import CostModel, IterationTiming, estimate_iteration_timing

__all__ = [
    "CostModel",
    "IterationTiming",
    "estimate_iteration_timing",
]
