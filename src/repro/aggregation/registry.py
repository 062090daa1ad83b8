"""Registry of aggregation rules, keyed by each class's ``aggregator_name``."""

from __future__ import annotations

from repro.aggregation.auror import AurorAggregator
from repro.aggregation.base import Aggregator
from repro.aggregation.bulyan import BulyanAggregator
from repro.aggregation.geometric_median import GeometricMedianAggregator
from repro.aggregation.krum import KrumAggregator, MultiKrumAggregator
from repro.aggregation.mean import MeanAggregator
from repro.aggregation.median import CoordinateWiseMedian
from repro.aggregation.median_of_means import MedianOfMeansAggregator
from repro.aggregation.sign_sgd import SignSGDMajorityAggregator
from repro.aggregation.trimmed_mean import TrimmedMeanAggregator
from repro.utils.registry import Registry

__all__ = [
    "register_aggregator",
    "get_aggregator",
    "create_aggregator",
    "available_aggregators",
]

_REGISTRY: Registry[Aggregator] = Registry(
    "aggregator",
    Aggregator,
    "aggregator_name",
    (
        MeanAggregator,
        CoordinateWiseMedian,
        TrimmedMeanAggregator,
        MedianOfMeansAggregator,
        KrumAggregator,
        MultiKrumAggregator,
        BulyanAggregator,
        GeometricMedianAggregator,
        SignSGDMajorityAggregator,
        AurorAggregator,
    ),
)

register_aggregator = _REGISTRY.register
get_aggregator = _REGISTRY.get
create_aggregator = _REGISTRY.create
available_aggregators = _REGISTRY.names
