"""The data build holds one copy of the data, and it is the same data.

``make_gaussian_mixture`` fills one preallocated ``(n, dim)`` array in row
blocks — a block of normal draws, then that block's class centres added in
place — instead of evaluating ``centers[labels] + rng.standard_normal((n,
dim))``, which kept the gather, the draw and the sum alive at once.  The
normal stream does not depend on how its draws are chunked and IEEE addition
commutes, so the one-shot formula stays here as the bit-for-bit oracle.
``Dataset.subset`` gathers once (integer indexing already copies), so a
train/test split holds the dataset plus its two halves.
"""

import json
import pathlib
import tracemalloc

import numpy as np
import pytest

import repro.data.synthetic as synthetic
from repro.data.datasets import Dataset, train_test_split
from repro.data.synthetic import make_gaussian_mixture
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ScenarioSpec

MIB = 1 << 20
WORKLOAD = pathlib.Path(__file__).resolve().parents[1] / "benchmarks/e2e/workloads"


def one_shot_mixture(num_samples, num_classes, dim, separation, rng):
    """The generator as one expression: what every golden was recorded with."""
    centers = rng.standard_normal((num_classes, dim)) * separation
    labels = np.arange(num_samples) % num_classes
    rng.shuffle(labels)
    return centers[labels] + rng.standard_normal((num_samples, dim)), labels


def rows_per_block(dim):
    return max(1, synthetic._DRAW_BLOCK_BYTES // (8 * dim))


@pytest.mark.parametrize(
    "num_samples, num_classes, dim",
    [
        (1, 1, 7),  # n = 1
        (9, 3, 1),  # dim = 1
        (2 * rows_per_block(3) + 5, 4, 3),  # n not a multiple of the block
        (3, 2, 40_000),  # one row is wider than a block
        (21_000, 10, 100),  # clean-compute-bound's data section
    ],
)
@pytest.mark.parametrize("seed", [0, 1234])
def test_mixture_is_the_one_shot_formula_bit_for_bit(num_samples, num_classes, dim, seed):
    oracle_rng = np.random.default_rng(seed)
    expected, labels = one_shot_mixture(num_samples, num_classes, dim, 2.5, oracle_rng)
    rng = np.random.default_rng(seed)  # a Generator, shared with the caller
    data = make_gaussian_mixture(num_samples, num_classes, dim, separation=2.5, seed=rng)
    assert data.inputs.dtype == np.float64 and data.inputs.shape == (num_samples, dim)
    assert np.array_equal(data.inputs.view(np.int64), expected.view(np.int64))
    assert np.array_equal(data.labels, labels)
    # the caller's generator has consumed exactly what the formula consumed
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("block_bytes", [1, 8 * 5, 8 * 7 * 3 + 1])
def test_any_block_size_draws_the_same_bits(monkeypatch, block_bytes):
    """One row per block, and row counts that leave a ragged last block."""
    monkeypatch.setattr(synthetic, "_DRAW_BLOCK_BYTES", block_bytes)
    expected, _ = one_shot_mixture(103, 6, 7, 2.0, np.random.default_rng(5))
    data = make_gaussian_mixture(103, 6, 7, separation=2.0, seed=5)
    assert np.array_equal(data.inputs.view(np.int64), expected.view(np.int64))


def test_integer_seed_matches_the_generator_it_names():
    expected, _ = one_shot_mixture(500, 4, 16, 2.0, np.random.default_rng(17))
    data = make_gaussian_mixture(500, 4, 16, separation=2.0, seed=17)
    assert np.array_equal(data.inputs.view(np.int64), expected.view(np.int64))


def test_subset_shares_no_memory_with_its_parent():
    data = Dataset(np.arange(40.0).reshape(10, 4), np.arange(10) % 3, num_classes=3)
    for indices in (np.array([0, 2, 4]), np.arange(10), np.array([5])):
        sub = data.subset(indices)
        assert not np.shares_memory(sub.inputs, data.inputs)
        assert not np.shares_memory(sub.labels, data.labels)
    train, test = train_test_split(data, test_fraction=0.3, seed=0)
    for part in (train, test):
        assert not np.shares_memory(part.inputs, data.inputs)
        assert not np.shares_memory(part.labels, data.labels)


# --------------------------------------------------------------------------- #
# Allocation peaks (the one-shot build read 2.01x and 2.92x at this shape)
# --------------------------------------------------------------------------- #
def clean_compute_bound():
    """``clean-compute-bound`` of ``benchmarks/e2e``: 21,000 x 100 float64."""
    return ScenarioSpec.from_dict(json.loads((WORKLOAD / "clean-compute-bound.json").read_text()))


def peak_above_start(build):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = build()
        return tracemalloc.get_traced_memory()[1] - start, result
    finally:
        tracemalloc.stop()


def test_mixture_peaks_at_one_dataset():
    """Measured 1.03x: the inputs, the labels and one block's gather."""
    peak, data = peak_above_start(lambda: make_gaussian_mixture(21_000, 10, 100, seed=0))
    dataset_bytes = data.inputs.nbytes
    assert dataset_bytes == 21_000 * 100 * 8
    assert peak <= dataset_bytes + 1 * MIB, peak / dataset_bytes


def test_runner_data_build_peaks_at_dataset_plus_its_split():
    """Measured 2.03x: the dataset, then its train and test gathers."""
    runner = ScenarioRunner(clean_compute_bound())
    peak, (train, test) = peak_above_start(runner._build_datasets)
    dataset_bytes = train.inputs.nbytes + test.inputs.nbytes
    assert dataset_bytes == 21_000 * 100 * 8
    assert peak <= 2 * dataset_bytes + 1 * MIB, peak / dataset_bytes
