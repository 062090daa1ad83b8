"""Gradient aggregation rules (robust and otherwise).

All aggregators consume a matrix of candidate gradients with one row per vote
(shape ``(n, d)``) and return a single aggregated gradient of shape ``(d,)``.
They are used in two places:

* as the *final* aggregation applied to the ``f`` majority-voted file
  gradients (ByzShield pairs the vote with coordinate-wise median; DETOX with
  median-of-means, Multi-Krum or signSGD), and
* as the plain defense of the non-redundant baselines, applied directly to the
  ``K`` worker gradients.
"""

from repro.aggregation.base import Aggregator
from repro.aggregation.bulyan import BulyanAggregator
from repro.aggregation.geometric_median import GeometricMedianAggregator
from repro.aggregation.krum import KrumAggregator, MultiKrumAggregator
from repro.aggregation.majority import majority_vote_votetensor
from repro.aggregation.mean import MeanAggregator
from repro.aggregation.median import CoordinateWiseMedian
from repro.aggregation.median_of_means import MedianOfMeansAggregator
from repro.aggregation.registry import (
    available_aggregators,
    create_aggregator,
    get_aggregator,
    register_aggregator,
)
from repro.aggregation.sign_sgd import SignSGDMajorityAggregator
from repro.aggregation.trimmed_mean import TrimmedMeanAggregator

__all__ = [
    "Aggregator",
    "MeanAggregator",
    "CoordinateWiseMedian",
    "TrimmedMeanAggregator",
    "MedianOfMeansAggregator",
    "KrumAggregator",
    "MultiKrumAggregator",
    "BulyanAggregator",
    "GeometricMedianAggregator",
    "SignSGDMajorityAggregator",
    "majority_vote_votetensor",
    "available_aggregators",
    "create_aggregator",
    "get_aggregator",
    "register_aggregator",
]
