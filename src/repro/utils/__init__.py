"""Shared utilities: seeding, validation and array helpers."""

from repro.utils.arrays import pairwise_squared_distances
from repro.utils.rng import as_generator, derive_seed
from repro.utils.validation import (
    check_positive_int,
    check_prime,
    is_prime,
)

__all__ = [
    "as_generator",
    "derive_seed",
    "check_positive_int",
    "check_prime",
    "is_prime",
    "pairwise_squared_distances",
]
