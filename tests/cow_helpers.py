"""Tests-only bridges between plain numpy rounds and the copy-on-write round.

The library builds a :class:`~repro.core.vote_tensor.VoteTensor` one way
(``from_honest``) and never materialises its ``(f, r, d)`` cube.  Tests that
state a round as a plain cube, or compare one against a reference, convert
at the boundary with :func:`tensor_of` and :func:`cube_of`.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.selection import ByzantineSelector
from repro.core.backend import bit_view_dtype
from repro.core.vote_tensor import VoteTensor
from repro.graphs.bipartite import BipartiteAssignment


def tensor_of(cube: np.ndarray, assignment: BipartiteAssignment | None = None) -> VoteTensor:
    """The copy-on-write tensor holding ``cube``.

    The base is the cube's slot-0 rows and ``write_slots`` covers every slot
    whose bytes differ from its slot 0.  Without an ``assignment`` every one
    of ``r`` workers holds every file (slot ``k`` is worker ``k``).
    """
    cube = np.asarray(cube)
    f, r, _ = cube.shape
    if assignment is None:
        assignment = BipartiteAssignment(np.ones((r, f), dtype=np.int8))
    tensor = VoteTensor.from_honest(assignment, cube[:, 0, :])
    bits = np.ascontiguousarray(cube).view(bit_view_dtype(cube.dtype))
    files, slots = np.nonzero((bits != bits[:, :1]).any(axis=2))
    tensor.write_slots(files, slots, cube[files, slots])
    return tensor


def cube_of(tensor: VoteTensor) -> np.ndarray:
    """The ``(f, r, d)`` cube a tensor stands for (a fresh copy)."""
    f, r, d = tensor.shape
    files, slots = np.repeat(np.arange(f), r), np.tile(np.arange(r), f)
    return tensor.read_slots(files, slots).reshape(f, r, d)


class FixedSelector(ByzantineSelector):
    """The same explicit Byzantine set every iteration."""

    def __init__(self, workers) -> None:
        self.workers = tuple(int(w) for w in workers)

    def select(self, assignment, iteration, rng) -> tuple[int, ...]:
        return self.workers
