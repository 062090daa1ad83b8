"""Stable content digests of numpy arrays and of a round's vote.

Shared by the parameter server's :meth:`state_digest` and the scenario trace
layer so there is exactly one definition of "bit-identical" in the repo.

A plain array digests over ``repr(shape)`` followed by its elements in C
order as native float64 bytes: two arrays digest equally iff they have the
same shape and the same float64 bit patterns.  The bytes are never held:
float64 C-contiguous input is handed to the hash as a buffer, anything else
is converted in bounded blocks.

A round's :class:`~repro.core.vote_tensor.VoteTensor` and the vote's
:class:`~repro.core.vote_tensor.RowSelection` digest in **trace format v2**,
from the content ids the vote computed (``RoundOutcome.content_ids`` /
``winner_refs``) — each distinct row is hashed once, never once per slot:

* votes: a header, ``repr((f, r, d))``, the canonical ``(f, r)`` content-id
  matrix as int64 (0 = bit-equal to the file's honest base row, the other
  ids numbered 1, 2, ... by first appearance in C order), the ``f`` base
  rows as float64, then one float64 row per nonzero id in id order.  The
  ``(f, r, d)`` cube and its base are rebuilt from these parts and the
  parts depend on their content alone, so two rounds digest equally iff
  both are bit-identical — whatever the storage layout, shared or per-slot
  writes or ``block_size``;
* winners: a header, ``repr((n, d))`` and the ``(n, 2)`` int64
  ``(file, content id)`` table of the post-vote rows (id ``-1``: the zero
  row of a file with no arrived copy).  The bytes behind each reference
  are pinned by the votes digest of the same round.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.vote_tensor import RowSelection, VoteTensor
from repro.exceptions import ConfigurationError

__all__ = ["array_digest"]

_DIGEST_DTYPE = np.dtype(np.float64)  # repro-lint: disable=DTYPE-001 (digests are defined over float64 bit patterns for every working dtype)

#: elements of a plain array handed to the hash per block: 512 KiB of
#: conversion scratch when the input is not float64 C-contiguous already, a
#: plain view when it is
_BLOCK_ELEMENTS = 1 << 16

#: the first bytes hashed by each trace format v2 digest
_VOTES_HEADER = b"repro trace v2 votes"
_WINNERS_HEADER = b"repro trace v2 winners"


def array_digest(
    array: np.ndarray | VoteTensor | RowSelection, ids: np.ndarray | None = None
) -> str:
    """16-hex-char digest of an array's shape and exact float64 contents.

    ``array`` is anything ``np.asarray`` accepts (a 0-d input digests as
    shape ``(1,)``), or — with ``ids`` — the round's vote tensor with its
    ``(f, r)`` canonical content ids, or the vote's winners with their
    ``(n, 2)`` references (trace format v2, see the module docstring).
    Neither is densified.
    """
    hasher = hashlib.sha256()
    if isinstance(array, VoteTensor):
        _hash_votes(hasher, array, _checked_ids(ids, array.workers.shape))
    elif isinstance(array, RowSelection):
        hasher.update(_WINNERS_HEADER)
        hasher.update(repr(array.shape).encode())
        hasher.update(_checked_ids(ids, (array.shape[0], 2)))
    else:
        array = np.atleast_1d(np.asarray(array))
        hasher.update(repr(array.shape).encode())
        _hash_float64(hasher, array)
    return hasher.hexdigest()[:16]


def _checked_ids(ids: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray:
    if ids is None or ids.shape != shape:
        found = None if ids is None else ids.shape
        raise ConfigurationError(
            f"a round's vote digests from its {shape} content ids, got {found}"
        )
    return np.ascontiguousarray(ids, dtype=np.int64)


def _hash_float64(hasher, array: np.ndarray) -> None:
    """Feed ``array``'s C-order float64 bytes, converting in bounded blocks.

    The C-order bytes of an array are those of its leading-axis slices, back
    to back, whatever its strides.
    """
    step = max(1, _BLOCK_ELEMENTS // max(1, array[:1].size))
    for i in range(0, array.shape[0], step):
        hasher.update(np.ascontiguousarray(array[i : i + step], dtype=_DIGEST_DTYPE))


def _hash_votes(hasher, tensor: VoteTensor, ids: np.ndarray) -> None:
    """The v2 votes digest: ids, base rows, then each distinct payload once.

    Every nonzero id is a written slot, so the row behind id ``k`` is the
    payload row of its first slot in C order, found in the payload table.
    """
    files, slots, row_ids, payloads = tensor.override_table()
    at_written = ids[files, slots]
    labels, first = np.unique(at_written, return_index=True)
    if labels.size and labels[0] == 0:
        labels, first = labels[1:], first[1:]
    if (
        np.count_nonzero(at_written) != np.count_nonzero(ids)
        or not np.array_equal(labels, np.arange(1, labels.size + 1))
        or np.any(np.diff(first) <= 0)
    ):
        raise ConfigurationError(
            "content ids are not the canonical ids of this vote tensor"
        )
    hasher.update(_VOTES_HEADER)
    hasher.update(repr(tensor.shape).encode())
    hasher.update(ids)
    _hash_float64(hasher, tensor.base_rows())
    for row in row_ids[first]:
        _hash_float64(hasher, payloads[row])
