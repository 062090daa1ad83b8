"""Tests-only bridges between plain numpy rounds and the copy-on-write round.

The library builds a :class:`~repro.core.vote_tensor.VoteTensor` one way
(``from_honest``) and never materialises its ``(f, r, d)`` cube.  Tests that
state a round as a plain cube, or compare one against a reference, convert
at the boundary with :func:`tensor_of` and :func:`cube_of`, and hand an
attack its view of the round with :func:`attack_context`.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import AttackContext
from repro.attacks.selection import ByzantineSelector
from repro.core.backend import bit_view_dtype
from repro.core.vote_tensor import VoteTensor
from repro.graphs.bipartite import BipartiteAssignment


#: the ways :func:`tensor_of` can store one cube over one base
LAYOUTS = ("per-slot", "shared", "all-slots", "rewritten")


def tensor_of(
    cube: np.ndarray,
    assignment: BipartiteAssignment | None = None,
    base: np.ndarray | None = None,
    layout: str = "per-slot",
) -> VoteTensor:
    """The copy-on-write tensor holding ``cube`` over the honest ``base``.

    ``base`` defaults to the cube's slot-0 rows.  ``layout`` is how the
    slots are written, and every layout holds the same base and cube:

    * ``per-slot``: one write of one row per slot that differs from its base;
    * ``shared``: one write per distinct row, shared by all its slots;
    * ``all-slots``: every slot written, base-equal ones included;
    * ``rewritten``: the differing slots written with a shared decoy first,
      then with their rows in reverse order (the decoy stays orphaned).

    Without an ``assignment`` every one of ``r`` workers holds every file
    (slot ``k`` is worker ``k``).
    """
    assert layout in LAYOUTS, layout
    cube = np.asarray(cube)
    f, r, d = cube.shape
    if assignment is None:
        assignment = BipartiteAssignment(np.ones((r, f), dtype=np.int8))
    tensor = VoteTensor.from_honest(assignment, cube[:, 0, :] if base is None else base)
    view = bit_view_dtype(cube.dtype)
    bits = np.ascontiguousarray(cube).view(view)
    differs = (bits != tensor.base_rows().view(view)[:, None, :]).any(axis=2)
    files, slots = np.nonzero(np.ones((f, r), dtype=bool) if layout == "all-slots" else differs)
    if layout == "shared" and files.size:
        _, row_of = np.unique(bits[files, slots], axis=0, return_inverse=True)
        for row in range(row_of.max() + 1):
            pick = np.nonzero(row_of.ravel() == row)[0]
            tensor.write_slots(files[pick], slots[pick], cube[files[pick[0]], slots[pick[0]]])
        return tensor
    if layout == "rewritten":
        tensor.write_slots(files, slots, np.full(d, 7.0, dtype=cube.dtype))
        files, slots = files[::-1], slots[::-1]
    tensor.write_slots(files, slots, cube[files, slots])
    return tensor


def cube_of(tensor: VoteTensor) -> np.ndarray:
    """The ``(f, r, d)`` cube a tensor stands for (a fresh copy)."""
    f, r, d = tensor.shape
    files, slots = np.repeat(np.arange(f), r), np.tile(np.arange(r), f)
    return tensor.read_slots(files, slots).reshape(f, r, d)


def attack_context(assignment, byzantine, honest, iteration=0, seed=0) -> AttackContext:
    """The adversary's view of a round of ``honest`` rows; its stream is
    ``np.random.default_rng(seed)`` (a generator passes through)."""
    return AttackContext(
        assignment=assignment,
        byzantine_workers=tuple(int(w) for w in byzantine),
        honest_matrix=honest,
        iteration=iteration,
        rng=np.random.default_rng(seed),
    )


class FixedSelector(ByzantineSelector):
    """The same explicit Byzantine set every iteration."""

    def __init__(self, workers) -> None:
        self.workers = tuple(int(w) for w in workers)

    def select(self, assignment, iteration, rng) -> tuple[int, ...]:
        return self.workers
