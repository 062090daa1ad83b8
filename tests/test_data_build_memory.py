"""The data build holds one copy of the data, and it is the same data.

``make_gaussian_mixture`` fills one preallocated ``(n, dim)`` array in row
blocks — a block of normal draws, then that block's class centres added in
place — instead of evaluating ``centers[labels] + rng.standard_normal((n,
dim))``, which kept the gather, the draw and the sum alive at once.  The
normal stream does not depend on how its draws are chunked and IEEE addition
commutes, so the one-shot formula stays here as the bit-for-bit oracle.

``ScenarioRunner`` draws the train/test permutation first (its own generator,
``seed + 1``) and has the generator write every row straight into its train
or test row, so train and test are read-only views of one array.  Its oracle
is ``train_test_split`` of the plain draw, which gathers a second copy.

A float32 run stores its data in float32: the generators still draw in
float64 and round each row once as they store it, so the oracle of a
float32 build is the float64 one ``.astype(np.float32)``.
"""

import json
import pathlib
import tracemalloc

import numpy as np
import pytest

import repro.data.synthetic as synthetic
from repro.data.datasets import Dataset, split_slots, train_test_split
from repro.data.synthetic import make_gaussian_mixture, make_synthetic_images
from repro.exceptions import DataError
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


def spec_in(spec, dtype):
    return ScenarioSpec.from_dict({**spec.to_dict(), "dtype": dtype})


def test_float32_runner_build_peaks_at_half_the_float64_dataset():
    """A float32 run never holds its data in float64: the build peaks at
    the float32 dataset plus a block of float64 scratch, not at the float64
    draw (a build that rounds a finished float64 array peaks at 1.5x)."""
    runner = ScenarioRunner(spec_in(clean_compute_bound(), "float32"))
    peak, (train, test) = peak_above_start(runner._build_datasets)
    assert train.inputs.dtype == test.inputs.dtype == np.float32
    float64_bytes = 21_000 * 100 * 8
    assert train.inputs.nbytes + test.inputs.nbytes == float64_bytes // 2
    assert peak <= float64_bytes / 2 + 1 * MIB, peak / float64_bytes


def test_runner_data_build_peaks_at_one_dataset():
    """Measured 1.05x: the dataset, its placed labels, the slots and one
    block of scratch (2.03x while the split gathered a copy of the draw)."""
    runner = ScenarioRunner(clean_compute_bound())
    peak, (train, test) = peak_above_start(runner._build_datasets)
    dataset_bytes = train.inputs.nbytes + test.inputs.nbytes
    assert dataset_bytes == 21_000 * 100 * 8
    assert peak <= dataset_bytes + 1 * MIB, peak / dataset_bytes


# --------------------------------------------------------------------------- #
# The fused build: the split drawn first, every row drawn into its slot
# --------------------------------------------------------------------------- #
def small_spec(kind, num_train, num_test, seed):
    return ScenarioSpec.from_dict({
        "name": "fused-build",
        "seed": seed,
        "cluster": {"scheme": "mols", "params": {"load": 5, "replication": 3}},
        "pipeline": {"kind": "byzshield", "aggregator": "median"},
        "data": {
            "kind": kind,
            "num_train": num_train,
            "num_test": num_test,
            "num_classes": 3,
            "dim": 5,
            "image_size": 4,
            "channels": 2,
        },
    })


def draw(data, seed, slots=None, dtype=None):
    """The runner's generator call for ``data``, without or with ``slots``."""
    total = data.num_train + data.num_test
    if data.kind == "gaussian":
        return make_gaussian_mixture(
            total, data.num_classes, data.dim, data.separation, seed=seed, slots=slots,
            dtype=dtype,
        )
    return make_synthetic_images(
        total, data.num_classes, data.image_size, data.channels,
        seed=seed, flatten=True, slots=slots, dtype=dtype,
    )


@pytest.mark.parametrize(
    "num_train, num_test, seed",
    [(20, 1, 0), (2, 1, 5), (7, 3, 11), (290, 10, 3), (1, 9, 2)],
    ids=["one-test-row", "a-third", "inexact-tenths", "default-like", "one-train-row"],
)
@pytest.mark.parametrize("kind", ["gaussian", "images"])
def test_runner_build_is_the_split_of_the_plain_draw(kind, num_train, num_test, seed):
    spec = small_spec(kind, num_train, num_test, seed)
    total = num_train + num_test
    oracle = train_test_split(draw(spec.data, seed), num_test / total, seed + 1)
    built = ScenarioRunner(spec)._build_datasets()
    for part, expected, rows in zip(built, oracle, (num_train, num_test)):
        assert part.inputs.shape == expected.inputs.shape == (rows, expected.flat_feature_dim)
        assert np.array_equal(part.inputs.view(np.int64), expected.inputs.view(np.int64))
        assert np.array_equal(part.labels, expected.labels)
        assert part.num_classes == expected.num_classes and part.name == expected.name
    train, test = built
    assert train.inputs.base is not None and train.inputs.base is test.inputs.base


@pytest.mark.parametrize("kind", ["gaussian", "images"])
def test_fused_draw_consumes_what_the_plain_draw_and_split_consume(kind):
    data = small_spec(kind, 45, 6, 0).data
    split_rng, oracle_split_rng = np.random.default_rng(8), np.random.default_rng(8)
    slots, num_train = split_slots(51, 6 / 51, seed=split_rng)
    rng, oracle_rng = np.random.default_rng(9), np.random.default_rng(9)
    fused = draw(data, rng, slots)
    plain = draw(data, oracle_rng)
    train, test = train_test_split(plain, 6 / 51, seed=oracle_split_rng)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert split_rng.bit_generator.state == oracle_split_rng.bit_generator.state
    # row i of the plain draw is row slots[i] of the fused one
    assert np.array_equal(fused.inputs[slots], plain.inputs)
    assert np.array_equal(fused.labels[slots], plain.labels)
    assert num_train == train.num_samples
    assert np.array_equal(fused.inputs[num_train:], test.inputs)


@pytest.mark.parametrize(
    "slots",
    [[0, 0, 1, 2], [0, 1, 2], [0, 1, 2, 4], [0.0, 1.0, 2.0, 3.0], [[0, 1], [2, 3]], [-1, 0, 1, 2]],
    ids=["repeat", "short", "out-of-range", "float", "2-d", "negative"],
)
@pytest.mark.parametrize("kind", ["gaussian", "images"])
def test_slots_must_be_a_permutation(kind, slots):
    data = small_spec(kind, 3, 1, 0).data
    with pytest.raises(DataError, match=r"permutation of range\(4\)"):
        draw(data, 0, slots=np.asarray(slots))


def test_built_splits_are_read_only():
    """Train and test are views of one array: a write into either raises."""
    train, test = ScenarioRunner(small_spec("gaussian", 30, 10, 0))._build_datasets()
    for part in (train, test):
        for array in (part.inputs, part.labels):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


# --------------------------------------------------------------------------- #
# The run's dtype: float32 data is the float64 draw rounded once
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("placed", [False, True], ids=["in-order", "slots"])
@pytest.mark.parametrize(
    "kind, num_train, num_test",
    [("gaussian", 290, 10), ("gaussian", 2 * rows_per_block(5) + 3, 4), ("images", 45, 6)],
    ids=["gaussian", "gaussian-ragged-blocks", "images"],
)
def test_float32_draw_is_the_float64_draw_rounded(kind, num_train, num_test, placed):
    data = small_spec(kind, num_train, num_test, 0).data
    total = num_train + num_test
    slots = split_slots(total, num_test / total, seed=4)[0] if placed else None
    rng, oracle_rng = np.random.default_rng(9), np.random.default_rng(9)
    rounded = draw(data, rng, slots, dtype="float32")
    expected = draw(data, oracle_rng, slots)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert rounded.inputs.dtype == np.float32
    assert rounded.inputs.tobytes() == expected.inputs.astype(np.float32).tobytes()
    assert np.array_equal(rounded.labels, expected.labels)
    assert rounded.name == expected.name and rounded.num_classes == expected.num_classes


@pytest.mark.parametrize("kind", ["gaussian", "images"])
def test_float64_is_the_default_draw(kind):
    data = small_spec(kind, 20, 5, 0).data
    default, named = draw(data, 3), draw(data, 3, dtype="float64")
    assert default.inputs.dtype == named.inputs.dtype == np.float64
    assert default.inputs.tobytes() == named.inputs.tobytes()


def test_dataset_keeps_float32_and_float64_and_coerces_the_rest():
    labels = np.arange(6) % 2
    for dtype in (np.float32, np.float64):
        inputs = np.arange(12, dtype=dtype).reshape(6, 2)
        kept = Dataset(inputs, labels, num_classes=2)
        assert kept.inputs.dtype == dtype and kept.inputs is inputs
    for inputs in (np.arange(12).reshape(6, 2), np.ones((6, 2), np.float16), [[1, 2]] * 6):
        assert Dataset(inputs, labels, num_classes=2).inputs.dtype == np.float64


@pytest.mark.parametrize("kind", ["gaussian", "images"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_runner_splits_are_in_the_run_dtype_and_read_only(kind, dtype):
    spec = small_spec(kind, 30, 10, 0)
    train, test = ScenarioRunner(spec_in(spec, dtype))._build_datasets()
    expected = ScenarioRunner(spec)._build_datasets()
    for part, oracle in zip((train, test), expected):
        assert part.inputs.dtype == np.dtype(dtype)
        assert part.inputs.tobytes() == oracle.inputs.astype(dtype).tobytes()
        assert np.array_equal(part.labels, oracle.labels)
        for array in (part.inputs, part.labels):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
