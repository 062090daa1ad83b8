"""End-to-end distributed training harness.

Combines the data pipeline, the NN substrate, the simulated cluster and an
aggregation pipeline into one synchronous iteration of paper Algorithm 1.
The run loop and its record (``RunTrace``) live in :mod:`repro.scenarios`.
"""

from repro.training.gradients import ModelGradientComputer
from repro.training.trainer import DistributedTrainer, IterationRecord

__all__ = [
    "ModelGradientComputer",
    "IterationRecord",
    "DistributedTrainer",
]
