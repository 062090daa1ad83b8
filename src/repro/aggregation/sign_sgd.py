"""signSGD with coordinate-wise majority vote (Bernstein et al., 2019).

Workers transmit only the sign of each gradient coordinate; the PS outputs the
majority sign per coordinate.  The model update then moves every parameter
by ``±learning_rate`` regardless of gradient magnitude, which is why the
paper pairs this defense with the *constant* attack (sign flips alone rarely
flip a coordinate's majority).
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.base import Aggregator

__all__ = ["SignSGDMajorityAggregator"]


class SignSGDMajorityAggregator(Aggregator):
    """Coordinate-wise majority of gradient signs."""

    aggregator_name = "signsgd"

    def _aggregate(self, matrix: np.ndarray) -> np.ndarray:
        signs = np.sign(matrix)
        return np.sign(signs.sum(axis=0))
