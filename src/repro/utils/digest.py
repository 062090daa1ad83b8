"""Stable content digests of numpy arrays and vote tensors.

Shared by the parameter server's :meth:`state_digest` and the scenario trace
layer so there is exactly one definition of "bit-identical" in the repo: two
arrays digest equally iff they have the same shape and the same float64 bit
patterns.

The digest is *defined* over ``repr(shape)`` followed by the array's elements
in C order as native float64 bytes, and *computed* without ever holding those
bytes: float64 C-contiguous input is handed to the hash as a buffer, anything
else is converted in bounded blocks, and a
:class:`~repro.core.vote_tensor.VoteTensor` or the vote's
:class:`~repro.core.vote_tensor.RowSelection` is hashed row by row from where
each row lives (its digest is that of its dense ``(f, r, d)`` cube or
``(n, d)`` matrix, which is never built).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.core.vote_tensor import RowSelection, VoteTensor

__all__ = ["array_digest"]

_DIGEST_DTYPE = np.dtype(np.float64)  # repro-lint: disable=DTYPE-001 (digests are defined over float64 bit patterns for every working dtype)

#: elements of a plain array handed to the hash per block: 512 KiB of
#: conversion scratch when the input is not float64 C-contiguous already, a
#: plain view when it is
_BLOCK_ELEMENTS = 1 << 16


def array_digest(array: np.ndarray | VoteTensor | RowSelection) -> str:
    """16-hex-char digest of an array's shape and exact float64 contents.

    ``array`` is anything ``np.asarray`` accepts (a 0-d input digests as
    shape ``(1,)``), or a vote tensor or row selection — any object with
    ``row_runs()`` — which is streamed from its copy-on-write store and
    left lazy.
    """
    if hasattr(array, "row_runs"):
        runs = array.row_runs()
    else:
        # The C-order bytes of an array are those of its leading-axis
        # slices, back to back, whatever its strides: runs of one.
        array = np.atleast_1d(np.asarray(array))
        step = max(1, _BLOCK_ELEMENTS // max(1, array[:1].size))
        runs = ((array[i : i + step], 1) for i in range(0, array.shape[0], step))
    hasher = hashlib.sha256()
    hasher.update(repr(array.shape).encode())
    for block, repeats in runs:
        buffer = np.ascontiguousarray(block, dtype=_DIGEST_DTYPE)  # a view when it can be
        for _ in range(repeats):
            hasher.update(buffer)
    return hasher.hexdigest()[:16]
