"""Shared utilities: seeding, validation and array helpers."""

from repro.utils.arrays import (
    stack_vectors,
    pairwise_squared_distances,
)
from repro.utils.rng import as_generator, derive_seed
from repro.utils.validation import (
    check_positive_int,
    check_odd,
    check_prime,
    is_prime,
)

__all__ = [
    "as_generator",
    "derive_seed",
    "check_positive_int",
    "check_odd",
    "check_prime",
    "is_prime",
    "stack_vectors",
    "pairwise_squared_distances",
]
