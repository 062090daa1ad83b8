"""Parameter-validation helpers used across the library.

These raise :class:`repro.exceptions.ConfigurationError` (a ``ValueError``
subclass) with informative messages so that misconfigured experiments fail
fast at construction time rather than mid-training.
"""

from __future__ import annotations

import math

from repro.exceptions import ConfigurationError

__all__ = [
    "check_positive_int",
    "is_prime",
    "check_prime",
]


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it."""
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")
    return value


def is_prime(n: int) -> bool:
    """Return True if ``n`` is a prime number (deterministic trial division)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    limit = int(math.isqrt(n))
    for d in range(3, limit + 1, 2):
        if n % d == 0:
            return False
    return True


def check_prime(value: int, name: str) -> int:
    """Validate that ``value`` is prime and return it."""
    check_positive_int(value, name)
    if not is_prime(value):
        raise ConfigurationError(f"{name} must be prime, got {value}")
    return value
