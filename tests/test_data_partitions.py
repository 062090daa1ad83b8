"""Tests for the non-IID partition builders and the sharded batch sampler.

Partitions must be pure functions of ``(labels, num_shards, alpha, seed)``
— stable across repeated calls *and* across interpreter processes, since a
distributed deployment recomputes the same partition on every node.  The
pinned digests below are the cross-process contract: they may only change
with an explicit scenario-digest migration.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data.batching import (
    PARTITION_KINDS,
    ShardedBatchSampler,
    build_file_partition,
    dirichlet_label_partition,
    partition_digest,
    quantity_skew_partition,
)
from repro.data.synthetic import make_gaussian_mixture
from repro.exceptions import DataError

LABELS = np.arange(600) % 4

# Cross-process pins: recorded once, guarded forever.
DIRICHLET_DIGEST = "f408263ae7eb7cd5f42efa997adaf6b1d90bfc99d6666b79d6250c19adcfcb71"
QSKEW_DIGEST = "147d6555ce8ac448906da066860d703d5649bbc03b4b4bf0320c51472bf44a0a"


# --------------------------------------------------------------------------- #
# Partition invariants
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", PARTITION_KINDS)
def test_partition_is_exact_cover(kind):
    dataset = make_gaussian_mixture(num_samples=600, num_classes=4, dim=5, seed=7)
    shards = build_file_partition(dataset, 15, kind, alpha=0.3, seed=3)
    assert len(shards) == 15
    union = np.concatenate(shards)
    assert union.size == 600
    assert np.array_equal(np.sort(union), np.arange(600))
    for shard in shards:
        assert shard.dtype == np.int64
        assert shard.size >= 1
        assert np.array_equal(shard, np.sort(shard))


def test_dirichlet_skew_strength_orders_with_alpha():
    # Small alpha concentrates classes; the per-shard label histograms must
    # be farther from uniform than with a large alpha.
    def skew(alpha):
        shards = dirichlet_label_partition(LABELS, 10, alpha, seed=11)
        deviations = []
        for shard in shards:
            hist = np.bincount(LABELS[shard], minlength=4) / shard.size
            deviations.append(float(np.abs(hist - 0.25).sum()))
        return float(np.mean(deviations))

    assert skew(0.1) > skew(100.0)


def test_partition_digests_are_pinned():
    d = dirichlet_label_partition(LABELS, 15, 0.3, seed=42)
    q = quantity_skew_partition(600, 15, 0.5, seed=42)
    assert partition_digest(d) == DIRICHLET_DIGEST
    assert partition_digest(q) == QSKEW_DIGEST


def test_partition_determinism_across_processes():
    script = (
        "import numpy as np;"
        "from repro.data.batching import dirichlet_label_partition,"
        " quantity_skew_partition, partition_digest;"
        "labels = np.arange(600) % 4;"
        "print(partition_digest(dirichlet_label_partition(labels, 15, 0.3, seed=42)));"
        "print(partition_digest(quantity_skew_partition(600, 15, 0.5, seed=42)))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": src, "PYTHONHASHSEED": "1"},
    )
    assert out.stdout.split() == [DIRICHLET_DIGEST, QSKEW_DIGEST]


def _reference_rebalanced(shards):
    sizes = np.asarray([len(shard) for shard in shards], dtype=np.int64)
    for index in range(len(shards)):
        while sizes[index] < 1:
            donor = int(np.argmax(sizes))
            shards[index].append(shards[donor].pop())
            sizes[donor] -= 1
            sizes[index] += 1
    return [np.sort(np.asarray(shard, dtype=np.int64)) for shard in shards]


def _reference_dirichlet(labels, num_shards, alpha, seed):
    """The per-sample dealing the slice-based partitions must reproduce."""
    from repro.data.batching import _apportion
    from repro.utils.rng import as_generator, derive_seed

    shards = [[] for _ in range(num_shards)]
    for cls in np.unique(labels):
        class_rng = as_generator(derive_seed(seed, "dirichlet", int(cls)))
        indices = np.nonzero(labels == cls)[0]
        indices = indices[class_rng.permutation(indices.size)]
        counts = _apportion(class_rng.dirichlet(np.full(num_shards, alpha)), indices.size)
        start = 0
        for shard, count in zip(shards, counts):
            shard.extend(int(i) for i in indices[start : start + count])
            start += count
    return _reference_rebalanced(shards)


def _reference_quantity_skew(num_samples, num_shards, alpha, seed):
    from repro.data.batching import _apportion
    from repro.utils.rng import as_generator, derive_seed

    rng = as_generator(derive_seed(seed, "quantity_skew"))
    counts = _apportion(rng.dirichlet(np.full(num_shards, alpha)), num_samples)
    permutation = rng.permutation(num_samples)
    shards, start = [], 0
    for count in counts:
        shards.append([int(i) for i in permutation[start : start + count]])
        start += count
    return _reference_rebalanced(shards)


@pytest.mark.parametrize("alpha", [0.01, 0.3, 5.0])
@pytest.mark.parametrize("num_shards", [1, 7, 25, 40])
def test_partitions_equal_the_per_sample_dealing(alpha, num_shards):
    """Small alphas leave shards empty, so the floor of one sample moves
    samples between shards."""
    labels = np.random.default_rng(num_shards).integers(0, 5, 400)
    for seed in range(4):
        pairs = [
            (
                dirichlet_label_partition(labels, num_shards, alpha, seed),
                _reference_dirichlet(labels, num_shards, alpha, seed),
            ),
            (
                quantity_skew_partition(400, num_shards, alpha, seed),
                _reference_quantity_skew(400, num_shards, alpha, seed),
            ),
        ]
        for shards, expected in pairs:
            assert len(shards) == len(expected)
            for shard, want in zip(shards, expected):
                assert shard.dtype == np.int64 and np.array_equal(shard, want)


def test_partition_seed_and_alpha_sensitivity():
    base = partition_digest(dirichlet_label_partition(LABELS, 15, 0.3, seed=42))
    assert partition_digest(dirichlet_label_partition(LABELS, 15, 0.3, seed=43)) != base
    assert partition_digest(dirichlet_label_partition(LABELS, 15, 0.4, seed=42)) != base


def test_quantity_skew_is_label_agnostic():
    shards = quantity_skew_partition(600, 15, 0.5, seed=42)
    sizes = sorted(len(s) for s in shards)
    assert sizes[0] >= 1
    assert sum(sizes) == 600
    assert sizes[-1] > sizes[0]  # alpha=0.5 must actually skew sizes


# --------------------------------------------------------------------------- #
# Degenerate inputs
# --------------------------------------------------------------------------- #
def test_empty_shard_rebalance_kicks_in():
    # alpha so small that some shard would get 0 samples of a 10-sample
    # class pool; every shard must still get one.
    shards = dirichlet_label_partition(np.zeros(10, dtype=np.int64), 10, 0.01, seed=0)
    assert all(s.size == 1 for s in shards)


def test_partition_with_more_shards_than_samples_raises():
    with pytest.raises(DataError):
        dirichlet_label_partition(np.arange(5) % 2, 10, 0.5)
    with pytest.raises(DataError):
        quantity_skew_partition(5, 10, 0.5)


def test_partition_argument_validation():
    with pytest.raises(DataError):
        dirichlet_label_partition(LABELS, 0, 0.5)
    with pytest.raises(DataError):
        dirichlet_label_partition(LABELS, 5, 0.0)
    with pytest.raises(DataError):
        quantity_skew_partition(0, 5, 0.5)
    dataset = make_gaussian_mixture(num_samples=60, num_classes=4, dim=5, seed=7)
    with pytest.raises(DataError):
        build_file_partition(dataset, 5, "zipf")


# --------------------------------------------------------------------------- #
# ShardedBatchSampler
# --------------------------------------------------------------------------- #
def make_sampler(batch_size=30, num_files=15, seed=5):
    dataset = make_gaussian_mixture(num_samples=600, num_classes=4, dim=5, seed=7)
    shards = dirichlet_label_partition(dataset.labels, num_files, 0.3, seed=3)
    return (
        ShardedBatchSampler(
            dataset=dataset, batch_size=batch_size, shards=shards, seed=seed
        ),
        shards,
    )


def test_sharded_sampler_draws_within_own_shard():
    sampler, shards = make_sampler()
    for _ in range(10):
        files = sampler.next_batch_files()
        assert len(files) == 15
        for shard, drawn in zip(shards, files):
            assert drawn.size == sampler.samples_per_file
            assert set(drawn.tolist()) <= set(shard.tolist())


def test_sharded_sampler_deterministic():
    a, _ = make_sampler(seed=5)
    b, _ = make_sampler(seed=5)
    for _ in range(7):
        fa, fb = a.next_batch_files(), b.next_batch_files()
        for x, y in zip(fa, fb):
            assert np.array_equal(x, y)


def test_sharded_sampler_wraps_small_shards():
    # quota larger than the smallest shard forces the wraparound refill.
    dataset = make_gaussian_mixture(num_samples=600, num_classes=4, dim=5, seed=7)
    shards = dirichlet_label_partition(dataset.labels, 15, 0.1, seed=3)
    smallest = min(s.size for s in shards)
    quota = smallest + 1
    sampler = ShardedBatchSampler(
        dataset=dataset, batch_size=quota * 15, shards=shards, seed=1
    )
    seen_all = False
    small_index = int(np.argmin([s.size for s in shards]))
    for _ in range(3):
        drawn = sampler.next_batch_files()[small_index]
        assert drawn.size == quota
        if set(drawn.tolist()) == set(shards[small_index].tolist()) or len(
            set(drawn.tolist())
        ) == smallest:
            seen_all = True
    assert seen_all


def test_sharded_sampler_validation():
    dataset = make_gaussian_mixture(num_samples=60, num_classes=4, dim=5, seed=7)
    shards = [np.arange(30), np.arange(30, 60)]
    with pytest.raises(DataError):
        ShardedBatchSampler(dataset=dataset, batch_size=0, shards=shards)
    with pytest.raises(DataError):
        ShardedBatchSampler(dataset=dataset, batch_size=10, shards=[])
    with pytest.raises(DataError):
        # batch size not divisible by the shard count
        ShardedBatchSampler(dataset=dataset, batch_size=5, shards=shards)
    with pytest.raises(DataError):
        ShardedBatchSampler(
            dataset=dataset,
            batch_size=4,
            shards=[np.arange(30), np.array([59, 60])],
        )
    with pytest.raises(DataError):
        ShardedBatchSampler(
            dataset=dataset, batch_size=4, shards=[np.arange(30), np.array([], int)]
        )


def test_sharded_sampler_batch_data_roundtrip():
    sampler, _ = make_sampler()
    indices = sampler.next_batch()
    inputs, labels = sampler.batch_data(indices)
    assert inputs.shape[0] == labels.shape[0] == indices.size
