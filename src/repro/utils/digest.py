"""Stable content digests of numpy arrays and of a round's vote.

Shared by the parameter server's :meth:`state_digest` and the scenario trace
layer so there is exactly one definition of "bit-identical" in the repo.

A plain array digests over ``repr(shape)``, then — unless it is float64 — a
dtype tag (the dtype's name), then its elements in C order as native-endian
bytes of its own width: a float32 array hashes its float32 bytes, never a
float64 widening.  Anything that is not a float32/float64 array (ints,
bools, Python scalars and lists, other float widths) hashes as its float64
conversion with no tag, and a big-endian float array as its native-endian
twin.  So two arrays digest equally iff they have the same shape, the same
float width and the same bit patterns, and every float64 byte stream is the
one trace format v2 defined.  The bytes are never held: C-contiguous input
of the hashed dtype is handed to the hash as a buffer, anything else is
converted in bounded blocks.

A round's :class:`~repro.core.vote_tensor.VoteTensor` and the vote's
:class:`~repro.core.vote_tensor.RowSelection` digest from the content ids
the vote computed (``RoundOutcome.content_ids`` / ``winner_refs``) — each
distinct row is hashed once, never once per slot:

* votes: a header, ``repr((f, r, d))``, the dtype tag unless the tensor is
  float64, the canonical ``(f, r)`` content-id matrix as int64 (0 =
  bit-equal to the file's honest base row, the other ids numbered 1, 2, ...
  by first appearance in C order), the ``f`` base rows, then one row per
  nonzero id in id order, rows in the tensor's own width.  The ``(f, r, d)``
  cube and its base are rebuilt from these parts and the parts depend on
  their content alone, so two rounds digest equally iff both are
  bit-identical — whatever the storage layout, shared or per-slot writes or
  ``block_size``;
* winners: a header, ``repr((n, d))`` and the ``(n, 2)`` int64
  ``(file, content id)`` table of the post-vote rows.  The bytes behind
  each reference are pinned by the votes digest of the same round.

A float64 run's digests are therefore those of trace format v2 byte for
byte; a float32 run's are trace format v3
(:func:`~repro.scenarios.trace.format_version_for`).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.backend import DEFAULT_DTYPE, SUPPORTED_DTYPES
from repro.core.vote_tensor import RowSelection, VoteTensor
from repro.exceptions import ConfigurationError

__all__ = ["array_digest"]

#: elements of a plain array handed to the hash per block when it is not
#: C-contiguous in its hashed dtype: at most 512 KiB of conversion scratch
_BLOCK_ELEMENTS = 1 << 16

#: the first bytes hashed by each vote-round digest (shared by v2 and v3)
_VOTES_HEADER = b"repro trace v2 votes"
_WINNERS_HEADER = b"repro trace v2 winners"


def array_digest(
    array: np.ndarray | VoteTensor | RowSelection, ids: np.ndarray | None = None
) -> str:
    """16-hex-char digest of an array's shape, float width and exact contents.

    ``array`` is anything ``np.asarray`` accepts (a 0-d input digests as
    shape ``(1,)``), or — with ``ids`` — the round's vote tensor with its
    ``(f, r)`` canonical content ids, or the vote's winners with their
    ``(n, 2)`` references (see the module docstring).  Neither is densified.
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
        dtype = _hashed_dtype(array.dtype)
        _hash_header(hasher, array.shape, dtype)
        _hash_rows(hasher, array, dtype)
    return hasher.hexdigest()[:16]


def _hashed_dtype(dtype: np.dtype) -> np.dtype:
    """A supported float dtype in native byte order, else :data:`DEFAULT_DTYPE`."""
    native = dtype.newbyteorder("=")
    return native if native in SUPPORTED_DTYPES.values() else DEFAULT_DTYPE


def _hash_header(hasher, shape: tuple[int, ...], dtype: np.dtype) -> None:
    """``repr(shape)``, then the dtype's name unless it is float64.

    A shape's repr holds one ``)``, at its end, so the tag cannot be read as
    part of it: the header is prefix-free.
    """
    hasher.update(repr(shape).encode())
    if dtype != DEFAULT_DTYPE:
        hasher.update(dtype.name.encode())


def _checked_ids(ids: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray:
    if ids is None or ids.shape != shape:
        found = None if ids is None else ids.shape
        raise ConfigurationError(
            f"a round's vote digests from its {shape} content ids, got {found}"
        )
    return np.ascontiguousarray(ids, dtype=np.int64)


def _hash_rows(hasher, array: np.ndarray, dtype: np.dtype) -> None:
    """Feed ``array``'s C-order bytes as ``dtype``, converting in bounded blocks.

    The C-order bytes of an array are those of its leading-axis slices, back
    to back, whatever its strides.
    """
    if array.dtype == dtype and array.flags.c_contiguous:
        hasher.update(array)
        return
    step = max(1, _BLOCK_ELEMENTS // max(1, array[:1].size))
    for i in range(0, array.shape[0], step):
        hasher.update(np.ascontiguousarray(array[i : i + step], dtype=dtype))


def _hash_votes(hasher, tensor: VoteTensor, ids: np.ndarray) -> None:
    """The votes digest: ids, base rows, then each distinct payload once.

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
    _hash_header(hasher, tensor.shape, tensor.dtype)
    hasher.update(ids)
    _hash_rows(hasher, tensor.base_rows(), tensor.dtype)
    for row in row_ids[first]:
        _hash_rows(hasher, payloads[row], tensor.dtype)
