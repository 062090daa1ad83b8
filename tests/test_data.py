"""Tests for datasets, synthetic generators and batching."""

import numpy as np
import pytest

from repro.data.batching import BatchSampler, partition_batch_into_files
from repro.data.datasets import Dataset, train_test_split
from repro.data.synthetic import make_gaussian_mixture, make_synthetic_images
from repro.exceptions import DataError


# --------------------------------------------------------------------------- #
# Dataset container
# --------------------------------------------------------------------------- #
def test_dataset_basic_properties():
    data = Dataset(np.zeros((10, 4)), np.arange(10) % 2, num_classes=2)
    assert data.num_samples == 10
    assert data.feature_shape == (4,)
    assert data.flat_feature_dim == 4


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(np.zeros((3, 2)), np.zeros(4, dtype=int), num_classes=2)
    with pytest.raises(DataError):
        Dataset(np.zeros((3, 2)), np.array([0, 1, 5]), num_classes=2)
    with pytest.raises(DataError):
        Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), num_classes=2)
    with pytest.raises(DataError):
        Dataset(np.zeros((3, 2)), np.zeros((3, 1), dtype=int), num_classes=2)


def test_dataset_subset():
    data = Dataset(np.arange(20).reshape(10, 2), np.arange(10) % 2, num_classes=2)
    sub = data.subset(np.array([0, 2, 4]))
    assert sub.num_samples == 3
    assert np.array_equal(sub.inputs[1], [4, 5])
    with pytest.raises(DataError):
        data.subset(np.array([], dtype=int))
    with pytest.raises(DataError):
        data.subset(np.array([100]))


def test_train_test_split_sizes_and_disjointness():
    data = make_gaussian_mixture(num_samples=100, num_classes=2, dim=3, seed=0)
    train, test = train_test_split(data, test_fraction=0.25, seed=1)
    assert train.num_samples == 75
    assert test.num_samples == 25
    with pytest.raises(DataError):
        train_test_split(data, test_fraction=0.0)
    with pytest.raises(DataError):
        train_test_split(data, test_fraction=1.0)


# --------------------------------------------------------------------------- #
# Synthetic generators
# --------------------------------------------------------------------------- #
def test_synthetic_images_shapes_and_balance():
    data = make_synthetic_images(num_samples=100, num_classes=5, image_size=6, channels=2, seed=0)
    assert data.inputs.shape == (100, 2, 6, 6)
    assert data.num_classes == 5
    assert np.bincount(data.labels, minlength=5).min() >= 100 // 5
    flat = make_synthetic_images(num_samples=20, num_classes=4, image_size=4, flatten=True, seed=0)
    assert flat.inputs.shape == (20, 3 * 4 * 4)


def test_synthetic_images_deterministic():
    a = make_synthetic_images(num_samples=30, seed=3)
    b = make_synthetic_images(num_samples=30, seed=3)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)


def test_synthetic_images_classes_are_separable():
    """With low noise a nearest-template classifier should do far better than chance."""
    data = make_synthetic_images(
        num_samples=200, num_classes=4, image_size=6, noise_scale=0.2, max_shift=0, seed=0
    )
    flat = data.inputs.reshape(200, -1)
    centroids = np.vstack([flat[data.labels == c].mean(axis=0) for c in range(4)])
    distances = ((flat[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    accuracy = (distances.argmin(axis=1) == data.labels).mean()
    assert accuracy > 0.9


def test_synthetic_images_validation():
    with pytest.raises(DataError):
        make_synthetic_images(num_samples=3, num_classes=10)
    with pytest.raises(DataError):
        make_synthetic_images(image_size=1)


def test_gaussian_mixture_properties():
    data = make_gaussian_mixture(num_samples=90, num_classes=3, dim=5, seed=0)
    assert data.inputs.shape == (90, 5)
    assert set(np.unique(data.labels)) == {0, 1, 2}
    with pytest.raises(DataError):
        make_gaussian_mixture(num_samples=2, num_classes=5)
    with pytest.raises(DataError):
        make_gaussian_mixture(separation=-1.0)


# --------------------------------------------------------------------------- #
# Batching
# --------------------------------------------------------------------------- #
def test_partition_batch_into_files_even_split():
    files = partition_batch_into_files(np.arange(12), 4)
    assert len(files) == 4
    assert all(f.size == 3 for f in files)
    assert np.array_equal(np.concatenate(files), np.arange(12))


def test_partition_batch_into_files_validation():
    with pytest.raises(DataError):
        partition_batch_into_files(np.arange(10), 3)
    with pytest.raises(DataError):
        partition_batch_into_files(np.arange(10), 0)


def test_batch_sampler_epoch_coverage():
    data = make_gaussian_mixture(num_samples=40, num_classes=2, dim=3, seed=0)
    sampler = BatchSampler(dataset=data, batch_size=10, num_files=2, seed=0)
    seen = np.concatenate([sampler.next_batch() for _ in range(4)])
    assert np.array_equal(np.sort(seen), np.arange(40))


def test_batch_sampler_deterministic():
    data = make_gaussian_mixture(num_samples=40, num_classes=2, dim=3, seed=0)
    a = BatchSampler(dataset=data, batch_size=8, num_files=2, seed=5)
    b = BatchSampler(dataset=data, batch_size=8, num_files=2, seed=5)
    for _ in range(6):
        assert np.array_equal(a.next_batch(), b.next_batch())


def test_batch_sampler_files_and_data():
    data = make_gaussian_mixture(num_samples=40, num_classes=2, dim=3, seed=0)
    sampler = BatchSampler(dataset=data, batch_size=12, num_files=4, seed=0)
    files = sampler.next_batch_files()
    assert len(files) == 4
    inputs, labels = sampler.batch_data(files[0])
    assert inputs.shape == (3, 3)
    assert labels.shape == (3,)


def test_batch_sampler_validation():
    data = make_gaussian_mixture(num_samples=10, num_classes=2, dim=3, seed=0)
    with pytest.raises(DataError):
        BatchSampler(dataset=data, batch_size=0, num_files=1)
    with pytest.raises(DataError):
        BatchSampler(dataset=data, batch_size=11, num_files=1)
