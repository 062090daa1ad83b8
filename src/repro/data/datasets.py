"""Dataset container and splitting utilities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.backend import ensure_float
from repro.exceptions import DataError
from repro.utils.rng import as_generator

__all__ = ["Dataset", "train_test_split", "split_slots"]


@dataclass(frozen=True)
class Dataset:
    """An in-memory supervised dataset.

    Attributes
    ----------
    inputs:
        Feature array; first axis indexes samples.  float32 and float64
        arrays are kept as they are (a run stores its data in its working
        dtype); anything else is coerced to the default float64.
    labels:
        Integer class labels of shape ``(n,)``.
    num_classes:
        Number of distinct classes (labels are in ``[0, num_classes)``).
    name:
        Human-readable dataset label.
    """

    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self) -> None:
        inputs = ensure_float(self.inputs)
        labels = np.asarray(self.labels, dtype=np.int64)
        if inputs.shape[0] != labels.shape[0]:
            raise DataError(
                f"inputs have {inputs.shape[0]} rows but labels have {labels.shape[0]}"
            )
        if labels.ndim != 1:
            raise DataError(f"labels must be 1-D, got shape {labels.shape}")
        if inputs.shape[0] == 0:
            raise DataError("dataset must contain at least one sample")
        if self.num_classes < 1:
            raise DataError(f"num_classes must be positive, got {self.num_classes}")
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise DataError(
                f"labels must lie in [0, {self.num_classes}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    # -- basic views ----------------------------------------------------------
    @property
    def num_samples(self) -> int:
        """Number of samples ``n``."""
        return int(self.inputs.shape[0])

    @property
    def feature_shape(self) -> tuple[int, ...]:
        """Shape of a single input sample."""
        return tuple(self.inputs.shape[1:])

    @property
    def flat_feature_dim(self) -> int:
        """Total number of features per sample (product of feature_shape)."""
        return int(np.prod(self.feature_shape)) if self.feature_shape else 1

    def subset(self, indices: np.ndarray) -> "Dataset":
        """A new dataset restricted to ``indices`` (copy).

        Integer-array indexing already returns a fresh array, so the gather
        is the one copy: nothing of the result aliases this dataset.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            raise DataError("cannot build an empty subset")
        if indices.min() < 0 or indices.max() >= self.num_samples:
            raise DataError("subset indices out of range")
        return Dataset(
            inputs=self.inputs[indices],
            labels=self.labels[indices],
            num_classes=self.num_classes,
            name=self.name,
        )


def train_test_split(
    dataset: Dataset,
    test_fraction: float = 0.2,
    seed: int | np.random.Generator | None = 0,
) -> tuple[Dataset, Dataset]:
    """Random split into train and test subsets.

    Both are gathered out of ``dataset``, so the split holds the data twice.
    :class:`~repro.scenarios.runner.ScenarioRunner` builds the same two
    datasets with one copy, by handing :func:`split_slots` to the generator;
    this function is that build's oracle.

    Parameters
    ----------
    test_fraction:
        Fraction of samples assigned to the test split (strictly between 0
        and 1, and both splits must end up non-empty).
    """
    n = dataset.num_samples
    n_test = _test_count(n, test_fraction)
    perm = as_generator(seed).permutation(n)
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    return dataset.subset(train_idx), dataset.subset(test_idx)


def split_slots(
    num_samples: int,
    test_fraction: float = 0.2,
    seed: int | np.random.Generator | None = 0,
) -> tuple[np.ndarray, int]:
    """Where :func:`train_test_split` puts each row, drawn before the data.

    Returns ``(slots, num_train)``: row ``i`` of a ``num_samples``-row
    dataset is row ``slots[i]`` of the train split followed by the test split,
    so train is rows ``[:num_train]`` and test rows ``[num_train:]`` of the
    dataset scattered by ``slots`` — the same rows, in the same order, as
    ``train_test_split(dataset, test_fraction, seed)`` gathers (it draws the
    same permutation from ``seed``).  A generator handed ``slots`` writes
    each row straight into its slot, so the split costs no second copy.
    """
    n_test = _test_count(num_samples, test_fraction)
    perm = as_generator(seed).permutation(num_samples)
    slots = np.empty(num_samples, dtype=np.int64)
    # perm[n_test:] are train rows 0, 1, ...; perm[:n_test] follow them as test rows.
    slots[perm] = np.roll(np.arange(num_samples), n_test)
    return slots, num_samples - n_test


def _test_count(n: int, test_fraction: float) -> int:
    """Rows of an ``n``-row dataset that a ``test_fraction`` split tests on."""
    if not (0.0 < test_fraction < 1.0):
        raise DataError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n_test = int(round(n * test_fraction))
    if n_test == 0 or n_test == n:
        raise DataError(
            f"test_fraction={test_fraction} produces an empty split for n={n}"
        )
    return n_test
