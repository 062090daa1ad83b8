"""The reference vote: the paper's majority rule over row bytes, in plain Python.

A file's ``r`` copies are compared by their bytes (NaN payloads with equal
bits are one vote, ``-0.0`` and ``+0.0`` are two).  Only the copies the PS
accepted vote.  The file is decided iff one class of equal copies holds at
least ``r' = r // 2 + 1`` of them — ``majority_threshold(r)`` for odd ``r``,
counted against the file's ``r`` copies, not against the ones that
arrived — and otherwise it abstains.  At most one class can reach ``r'``, so
nothing breaks a tie.  This is the oracle the vote kernel is tested and
benchmarked against.
"""

from __future__ import annotations

import numpy as np


def reference_majority(copies: np.ndarray, arrived=None) -> tuple[np.ndarray | None, int]:
    """``(winner, count)`` of one file's ``(r, d)`` copies.

    ``arrived`` is the ``(r,)`` bool mask of the accepted copies (``None``:
    all).  An abstaining file returns ``(None, 0)``.
    """
    r = len(copies)
    counts: dict[bytes, int] = {}
    first: dict[bytes, int] = {}
    for slot, copy in enumerate(copies):
        if arrived is None or arrived[slot]:
            key = copy.tobytes()
            counts[key] = counts.get(key, 0) + 1
            first.setdefault(key, slot)
    for key, count in counts.items():
        if count > r // 2:
            return copies[first[key]].copy(), count
    return None, 0


def reference_vote(cube: np.ndarray, arrived=None) -> tuple[np.ndarray, np.ndarray]:
    """Every file of an ``(f, r, d)`` cube: ``(winners, counts)``.

    ``winners`` is the ``(n, d)`` rows of the decided files in file order and
    ``counts`` the ``(f,)`` votes behind them (0: the file abstained).
    """
    winners = []
    counts = np.zeros(cube.shape[0], dtype=np.int64)
    for i, copies in enumerate(cube):
        winner, counts[i] = reference_majority(copies, None if arrived is None else arrived[i])
        if winner is not None:
            winners.append(winner)
    return (np.stack(winners) if winners else cube[:0, 0].copy()), counts
