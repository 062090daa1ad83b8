"""Synthetic datasets standing in for CIFAR-10 (offline substitution).

Two generators are provided:

* :func:`make_synthetic_images` — class-conditional "images": each class has a
  smooth random spatial template (low-frequency structure, like natural image
  statistics) and samples are noisy, randomly shifted renditions of their
  class template.  This is the drop-in replacement for CIFAR-10 in the
  deep-learning experiments.
* :func:`make_gaussian_mixture` — a d-dimensional Gaussian mixture
  classification task; fast, convex-ish, used by unit tests and quick demos.
"""

from __future__ import annotations

import numpy as np

from repro.core.backend import DRAW_DTYPE, resolve_dtype
from repro.data.datasets import Dataset
from repro.exceptions import DataError
from repro.utils.arrays import block_ranges
from repro.utils.rng import as_generator

__all__ = ["make_synthetic_images", "make_gaussian_mixture"]

#: Bytes of inputs :func:`make_gaussian_mixture` draws per row block: the
#: only scratch besides the dataset is one block's ``centers[labels]`` gather
#: (and, when rows are placed by ``slots`` or stored in float32, the block).
_DRAW_BLOCK_BYTES = 256 * 1024


def _checked_slots(slots: np.ndarray | None, num_samples: int) -> np.ndarray | None:
    """``slots`` as int64, when it is a permutation of ``range(num_samples)``."""
    if slots is None:
        return None
    slots = np.asarray(slots)
    if (
        slots.shape != (num_samples,)
        or slots.dtype.kind not in "iu"
        or not np.array_equal(np.sort(slots), np.arange(num_samples))
    ):
        raise DataError(f"slots must be a permutation of range({num_samples})")
    return slots.astype(np.int64, copy=False)


def _placed(labels: np.ndarray, slots: np.ndarray | None) -> np.ndarray:
    """``labels`` with entry ``i`` moved to ``slots[i]``."""
    if slots is None:
        return labels
    placed = np.empty_like(labels)
    placed[slots] = labels
    return placed


def _smooth_template(
    rng: np.random.Generator, channels: int, size: int, smoothing_passes: int = 4
) -> np.ndarray:
    """Low-frequency random template obtained by repeated box blurring."""
    template = rng.standard_normal((channels, size, size))
    for _ in range(smoothing_passes):
        padded = np.pad(template, ((0, 0), (1, 1), (1, 1)), mode="edge")
        template = (
            padded[:, :-2, 1:-1]
            + padded[:, 2:, 1:-1]
            + padded[:, 1:-1, :-2]
            + padded[:, 1:-1, 2:]
            + padded[:, 1:-1, 1:-1]
        ) / 5.0
    # Normalize each template to zero mean / unit variance for class balance.
    template -= template.mean()
    template /= template.std() + 1e-12
    return template


def make_synthetic_images(
    num_samples: int = 2000,
    num_classes: int = 10,
    image_size: int = 8,
    channels: int = 3,
    noise_scale: float = 0.9,
    max_shift: int = 1,
    seed: int | np.random.Generator | None = 0,
    flatten: bool = False,
    slots: np.ndarray | None = None,
    dtype: object | None = None,
) -> Dataset:
    """Class-conditional synthetic image classification dataset.

    Parameters
    ----------
    num_samples:
        Total number of samples (classes are balanced up to rounding).
    num_classes:
        Number of classes (CIFAR-10 uses 10).
    image_size, channels:
        Spatial size and channel count of each image.
    noise_scale:
        Standard deviation of the additive Gaussian pixel noise; larger values
        make the task harder so accuracy improves gradually over training
        (mimicking the paper's multi-hundred-iteration accuracy curves).
    max_shift:
        Samples are randomly translated by up to this many pixels (with edge
        padding), adding intra-class variation.
    flatten:
        Return inputs of shape ``(n, c*h*w)`` instead of ``(n, c, h, w)``.
    slots:
        Optional permutation of ``range(num_samples)``: the ``i``-th image
        drawn is written straight into row ``slots[i]`` (see
        :func:`~repro.data.datasets.split_slots`).  The draws are the same
        either way; only where each row lands changes.
    dtype:
        Float dtype the images are stored in (default float64).  Every image
        is drawn in :data:`~repro.core.backend.DRAW_DTYPE` and rounded once,
        as it is stored, so a float32 draw is the float64 one ``.astype``-ed.
    """
    if num_samples < num_classes:
        raise DataError("need at least one sample per class")
    if image_size < 2 or channels < 1:
        raise DataError("image_size must be >= 2 and channels >= 1")
    slots = _checked_slots(slots, num_samples)
    rng = as_generator(seed)
    templates = np.stack(
        [_smooth_template(rng, channels, image_size) for _ in range(num_classes)]
    )
    labels = np.arange(num_samples) % num_classes
    rng.shuffle(labels)
    images = np.empty(
        (num_samples, channels, image_size, image_size), dtype=resolve_dtype(dtype)
    )
    rows = range(num_samples) if slots is None else slots
    for idx, row in enumerate(rows):
        template = templates[labels[idx]]
        if max_shift > 0:
            dy = int(rng.integers(-max_shift, max_shift + 1))
            dx = int(rng.integers(-max_shift, max_shift + 1))
            shifted = np.roll(np.roll(template, dy, axis=1), dx, axis=2)
        else:
            shifted = template
        images[row] = shifted + noise_scale * rng.standard_normal(template.shape)
    inputs = images.reshape(num_samples, -1) if flatten else images
    return Dataset(
        inputs=inputs,
        labels=_placed(labels, slots),
        num_classes=num_classes,
        name=f"synthetic_images(classes={num_classes}, size={image_size})",
    )


def make_gaussian_mixture(
    num_samples: int = 2000,
    num_classes: int = 4,
    dim: int = 16,
    separation: float = 2.0,
    seed: int | np.random.Generator | None = 0,
    slots: np.ndarray | None = None,
    dtype: object | None = None,
) -> Dataset:
    """Isotropic Gaussian blobs, one per class, with controllable separation.

    ``slots`` and ``dtype`` are as in :func:`make_synthetic_images`: a block
    that is placed by ``slots`` or stored in float32 is drawn into one block
    of :data:`~repro.core.backend.DRAW_DTYPE` scratch and then copied to its
    rows, rounded once.
    """
    if num_samples < num_classes:
        raise DataError("need at least one sample per class")
    if separation <= 0:
        raise DataError(f"separation must be positive, got {separation}")
    slots = _checked_slots(slots, num_samples)
    rng = as_generator(seed)
    centers = rng.standard_normal((num_classes, dim)) * separation
    labels = np.arange(num_samples) % num_classes
    rng.shuffle(labels)
    # Bit-identical to ``centers[labels] + rng.standard_normal((n, dim))``:
    # the normal stream does not depend on how its draws are chunked, and
    # noise + center is center + noise.  Only the array itself is full size.
    inputs = np.empty((num_samples, dim), dtype=resolve_dtype(dtype))
    rows = max(1, _DRAW_BLOCK_BYTES // (DRAW_DTYPE.itemsize * max(dim, 1)))
    in_place = slots is None and inputs.dtype == DRAW_DTYPE
    scratch = None if in_place else np.empty((min(rows, num_samples), dim), DRAW_DTYPE)
    for lo, hi in block_ranges(num_samples, rows):
        block = inputs[lo:hi] if scratch is None else scratch[: hi - lo]
        rng.standard_normal(out=block)
        block += centers[labels[lo:hi]]
        if scratch is not None:
            inputs[slice(lo, hi) if slots is None else slots[lo:hi]] = block
    return Dataset(
        inputs=inputs,
        labels=_placed(labels, slots),
        num_classes=num_classes,
        name=f"gaussian_mixture(classes={num_classes}, dim={dim})",
    )

