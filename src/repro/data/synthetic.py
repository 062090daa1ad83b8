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

from repro.core.backend import DEFAULT_DTYPE
from repro.data.datasets import Dataset
from repro.exceptions import DataError
from repro.utils.rng import as_generator

__all__ = ["make_synthetic_images", "make_gaussian_mixture"]


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
    """
    if num_samples < num_classes:
        raise DataError("need at least one sample per class")
    if image_size < 2 or channels < 1:
        raise DataError("image_size must be >= 2 and channels >= 1")
    rng = as_generator(seed)
    templates = np.stack(
        [_smooth_template(rng, channels, image_size) for _ in range(num_classes)]
    )
    labels = np.arange(num_samples) % num_classes
    rng.shuffle(labels)
    images = np.empty((num_samples, channels, image_size, image_size), dtype=DEFAULT_DTYPE)
    for idx in range(num_samples):
        template = templates[labels[idx]]
        if max_shift > 0:
            dy = int(rng.integers(-max_shift, max_shift + 1))
            dx = int(rng.integers(-max_shift, max_shift + 1))
            shifted = np.roll(np.roll(template, dy, axis=1), dx, axis=2)
        else:
            shifted = template
        images[idx] = shifted + noise_scale * rng.standard_normal(template.shape)
    inputs = images.reshape(num_samples, -1) if flatten else images
    return Dataset(
        inputs=inputs,
        labels=labels,
        num_classes=num_classes,
        name=f"synthetic_images(classes={num_classes}, size={image_size})",
    )


def make_gaussian_mixture(
    num_samples: int = 2000,
    num_classes: int = 4,
    dim: int = 16,
    separation: float = 2.0,
    seed: int | np.random.Generator | None = 0,
) -> Dataset:
    """Isotropic Gaussian blobs, one per class, with controllable separation."""
    if num_samples < num_classes:
        raise DataError("need at least one sample per class")
    if separation <= 0:
        raise DataError(f"separation must be positive, got {separation}")
    rng = as_generator(seed)
    centers = rng.standard_normal((num_classes, dim)) * separation
    labels = np.arange(num_samples) % num_classes
    rng.shuffle(labels)
    inputs = centers[labels] + rng.standard_normal((num_samples, dim))
    return Dataset(
        inputs=inputs,
        labels=labels,
        num_classes=num_classes,
        name=f"gaussian_mixture(classes={num_classes}, dim={dim})",
    )

