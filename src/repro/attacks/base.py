"""Attack interface and the omniscient attack context.

The attack model of the paper (Section 2, Eq. (2)) lets Byzantine workers
return *any* vector for each file they are assigned.  Because the adversary is
omniscient, an attack may inspect the complete set of true per-file gradients,
the assignment graph and the identity of all Byzantine workers before
choosing the adversarial vectors — ALIE uses exactly this to estimate the
gradient statistics it distorts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graphs.bipartite import BipartiteAssignment
from repro.utils.rng import as_generator

__all__ = ["AttackContext", "Attack", "byzantine_write_order"]


def byzantine_write_order(context: "AttackContext", tensor) -> tuple[np.ndarray, np.ndarray]:
    """``(files, slots)`` of the Byzantine slots in per-slot write order.

    The order is: Byzantine workers in context order and, within a worker,
    its files in assignment order.  Attacks that draw one payload per slot
    (the noise attacks) draw a stacked ``(m, d)`` sample and scatter it with
    the pair list returned here; the golden traces pin this order, because
    it fixes which slot receives which part of the round's RNG stream.
    """
    files_list: list[int] = []
    workers_list: list[int] = []
    for worker in context.byzantine_workers:
        for file in context.assignment.files_of_worker(worker):
            files_list.append(int(file))
            workers_list.append(int(worker))
    files = np.asarray(files_list, dtype=np.int64)
    workers = np.asarray(workers_list, dtype=np.int64)
    rows = tensor.workers[files]
    slots = (rows == workers[:, None]).argmax(axis=1)
    return files, slots


@dataclass(frozen=True)
class AttackContext:
    """Everything an omniscient adversary can see in one iteration.

    Attributes
    ----------
    assignment:
        The worker/file assignment graph.
    byzantine_workers:
        Identities of the compromised workers this iteration.
    honest_matrix:
        The true gradient of every file stacked into an ``(f, d)`` matrix in
        file order (what honest workers would return).
    iteration:
        Zero-based training iteration (attacks may vary over time).
    rng:
        Generator for stochastic attacks.  The simulator always passes a
        per-round derived generator; the default (a fixed-seed generator,
        never fresh OS entropy) only exists so hand-built contexts in tests
        are reproducible too.
    """

    assignment: BipartiteAssignment
    byzantine_workers: tuple[int, ...]
    honest_matrix: np.ndarray
    iteration: int = 0
    rng: np.random.Generator = field(default_factory=lambda: as_generator(0))

    @property
    def num_byzantine(self) -> int:
        """Number of compromised workers ``q``."""
        return len(self.byzantine_workers)

    def stacked_honest_gradients(self) -> np.ndarray:
        """The ``(f, d)`` honest gradient matrix as a read-only view.

        It is the simulator's ground-truth matrix (writes are blocked via
        the writeable flag), so attacks must derive payloads into fresh
        arrays.
        """
        view = self.honest_matrix.view()
        view.setflags(write=False)
        return view


class Attack:
    """A rule producing the adversarial vectors of the Byzantine workers.

    The paper's adversary colludes: every Byzantine worker returns the same
    crafted vector.  Such an attack defines one method, :meth:`payload`, and
    inherits :meth:`apply_tensor`, which writes that payload into every
    compromised slot.  An attack that sends a different vector per slot
    (reversed gradient, the noise attacks) overrides :meth:`apply_tensor`
    instead.
    """

    attack_name: str = "abstract"

    def payload(self, context: AttackContext) -> "float | np.ndarray":
        """The one vector every Byzantine worker sends: a scalar or ``(d,)``."""
        raise NotImplementedError(
            f"{type(self).__name__} defines neither payload() nor apply_tensor()"
        )

    def apply_tensor(self, context: AttackContext, tensor) -> None:
        """Write this iteration's adversarial payloads into a vote tensor.

        ``tensor`` is a :class:`~repro.core.vote_tensor.VoteTensor` whose
        ``byzantine_mask`` already marks the compromised slots.  Writes go
        through the slot API, so no replica is copied and one shared
        payload is stored once.
        """
        if context.num_byzantine == 0:
            return
        files, slots = np.nonzero(tensor.byzantine_mask)
        tensor.write_slots(files, slots, self.payload(context))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"
