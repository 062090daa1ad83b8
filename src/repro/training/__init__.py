"""End-to-end distributed training harness.

Combines the data pipeline, the NN substrate, the cluster simulator and an
aggregation pipeline into the synchronous training loop of paper Algorithm 1,
and records the metrics the paper plots (top-1 test accuracy versus iteration,
training loss, realized distortion fraction).
"""

from repro.training.config import TrainingConfig
from repro.training.gradients import ModelGradientComputer
from repro.training.history import TrainingHistory, IterationRecord
from repro.training.trainer import DistributedTrainer

__all__ = [
    "ModelGradientComputer",
    "TrainingConfig",
    "TrainingHistory",
    "IterationRecord",
    "DistributedTrainer",
]
