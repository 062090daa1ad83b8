"""Deterministic random-number utilities.

Every stochastic component of the library accepts either an integer seed, an
existing :class:`numpy.random.Generator` or ``None`` and funnels it through
:func:`as_generator`.  Experiments therefore reproduce bit-for-bit when given
the same seed, which is essential for the paper's tables where the Byzantine
set and the batch order must be identical across compared schemes.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["as_generator", "derive_seed"]


def as_generator(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an integer seed, or an existing
        generator which is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(*parts: object) -> int:
    """Hash arbitrary labelled parts into a stable 63-bit integer seed.

    Useful to derive per-iteration or per-worker seeds from a global seed and
    a label, e.g. ``derive_seed(global_seed, "byzantine-set", iteration)``.
    """
    digest = hashlib.sha256("::".join(repr(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") & ((1 << 63) - 1)
