"""Training configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = ["TrainingConfig"]


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of a distributed training run.

    Attributes
    ----------
    batch_size:
        Global batch size ``b`` (the paper uses 750); must be divisible by
        the number of files of the chosen assignment.
    num_iterations:
        Number of synchronous SGD iterations ``T``.
    learning_rate:
        Initial learning rate ``x`` of the paper's ``(x, y, z)`` schedule.
    lr_decay:
        Multiplicative decay ``y`` applied every ``lr_period`` iterations.
    lr_period:
        Decay period ``z`` in iterations.
    momentum:
        SGD momentum (paper uses 0.9).
    weight_decay:
        Optional L2 regularization coefficient.
    eval_every:
        Evaluate test accuracy every this many iterations (and at the end).
    seed:
        Global seed driving batch order, Byzantine selection and attack noise.
    """

    batch_size: int = 100
    num_iterations: int = 100
    learning_rate: float = 0.05
    lr_decay: float = 0.96
    lr_period: int = 15
    momentum: float = 0.9
    weight_decay: float = 0.0
    eval_every: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be positive, got {self.batch_size}")
        if self.num_iterations < 1:
            raise ConfigurationError(
                f"num_iterations must be positive, got {self.num_iterations}"
            )
        if not self.learning_rate > 0:  # also NaN
            raise ConfigurationError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )
        if not self.lr_decay > 0:
            raise ConfigurationError(f"lr_decay must be positive, got {self.lr_decay}")
        if self.lr_period < 1:
            raise ConfigurationError(f"lr_period must be >= 1, got {self.lr_period}")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigurationError(f"momentum must be in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0:
            raise ConfigurationError(
                f"weight_decay must be non-negative, got {self.weight_decay}"
            )
        if self.eval_every < 1:
            raise ConfigurationError(f"eval_every must be >= 1, got {self.eval_every}")
