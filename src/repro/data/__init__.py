"""Datasets and batching.

The paper trains on CIFAR-10; offline we substitute deterministic synthetic
datasets (see DESIGN.md) that exercise the same code path: mini-batch
sampling, splitting every batch into ``f`` equally sized files, per-file
gradient computation and aggregation.
"""

from repro.data.batching import (
    BatchSampler,
    ShardedBatchSampler,
    build_file_partition,
    dirichlet_label_partition,
    partition_batch_into_files,
    partition_digest,
    quantity_skew_partition,
)
from repro.data.datasets import Dataset, split_slots, train_test_split
from repro.data.synthetic import make_synthetic_images, make_gaussian_mixture

__all__ = [
    "Dataset",
    "train_test_split",
    "split_slots",
    "make_synthetic_images",
    "make_gaussian_mixture",
    "BatchSampler",
    "ShardedBatchSampler",
    "build_file_partition",
    "dirichlet_label_partition",
    "partition_batch_into_files",
    "partition_digest",
    "quantity_skew_partition",
]
