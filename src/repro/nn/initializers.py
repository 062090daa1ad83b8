"""Weight initializers.

All initializers take an explicit :class:`numpy.random.Generator` so model
construction is deterministic given a seed — a requirement for the
distributed experiments where every compared scheme must start from the same
``w₀`` (paper Algorithm 1, line 1).

Each initializer accepts a ``dtype`` resolved through the backend seam
(:mod:`repro.core.backend`); sampling always happens in ``float64`` — so a
``float32`` model starts from the rounded ``float64`` weights, not from a
different random stream — and the cast to the working dtype comes last.
"""

from __future__ import annotations

import numpy as np

from repro.core.backend import resolve_dtype

__all__ = ["he_normal", "zeros_init"]


def he_normal(
    shape: tuple[int, ...],
    rng: np.random.Generator,
    fan_in: int | None = None,
    dtype: object | None = None,
) -> np.ndarray:
    """He normal initialization: N(0, 2/fan_in), suited to ReLU networks."""
    if fan_in is None:
        if len(shape) < 2:
            fan_in = int(shape[0])
        else:
            receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
            fan_in = shape[1] * receptive
    std = np.sqrt(2.0 / fan_in)
    return (rng.standard_normal(shape) * std).astype(resolve_dtype(dtype))


def zeros_init(shape: tuple[int, ...], dtype: object | None = None) -> np.ndarray:
    """All-zeros initialization (biases, batch-norm shifts)."""
    return np.zeros(shape, dtype=resolve_dtype(dtype))
