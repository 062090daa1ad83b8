"""Simulated PS/worker cluster.

The paper runs on an MPI cluster of EC2 instances; offline we simulate the
cluster in-process (see DESIGN.md).  The simulation preserves exactly the
quantities the paper's claims are about — which worker returns which file
gradient, which returns are Byzantine, what the PS aggregates — and adds an
explicit cost model so the per-iteration time breakdown of Figure 12 can be
reproduced.
"""

from repro.cluster.messages import TensorRoundResult
from repro.cluster.server import ParameterServer
from repro.cluster.simulator import TrainingCluster
from repro.cluster.timing import CostModel, IterationTiming, estimate_iteration_timing
from repro.cluster.topology import GroupTopology, hierarchical_majority_vote
from repro.cluster.worker import WorkerPool

__all__ = [
    "TensorRoundResult",
    "WorkerPool",
    "ParameterServer",
    "TrainingCluster",
    "CostModel",
    "IterationTiming",
    "estimate_iteration_timing",
    "GroupTopology",
    "hierarchical_majority_vote",
]
