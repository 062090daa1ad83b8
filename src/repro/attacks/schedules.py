"""Time-varying adversary schedules.

The paper's experiments fix the Byzantine budget ``q`` for a whole run, but
real deployments face adversaries that come and go: compromised machines get
re-imaged, new ones fall, botnets grow.  A scenario's
:class:`~repro.scenarios.spec.ScheduleSpec` maps the iteration index to that
round's budget ``q_t`` (and, for the rotating adversary, to the concrete
compromised set), and :class:`ScheduledSelector` adapts it to the
:class:`~repro.attacks.selection.ByzantineSelector` interface so the
simulator drives it unchanged.

Three schedule kinds are provided:

* ``static``   — constant ``q`` (the paper's threat model);
* ``ramping``  — ``q`` interpolates from ``q_start`` to ``q_end`` in steps of
  ``period`` iterations (an escalating compromise);
* ``rotating`` — constant ``q`` but the compromised *window* shifts by
  ``stride`` workers every ``period`` iterations (churned compromise).

All selection randomness comes from the per-round generator the simulator
passes in, so identical seeds give bit-identical schedules.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.attacks.selection import ByzantineSelector, OmniscientSelector
from repro.graphs.bipartite import BipartiteAssignment

if TYPE_CHECKING:  # pragma: no cover - the selector only reads the schedule
    from repro.scenarios.spec import ScheduleSpec

__all__ = ["ScheduledSelector"]


class ScheduledSelector(ByzantineSelector):
    """Drives a :class:`ByzantineSelector` from a scenario's schedule.

    Parameters
    ----------
    schedule:
        The budget/rotation schedule (:class:`~repro.scenarios.spec.ScheduleSpec`).
    selection:
        How the ``q_t`` workers are picked each round: ``"omniscient"``
        (worst-case set for that budget, cached per ``(assignment, q)``),
        ``"random"`` (fresh uniform draw from the round generator) or
        ``"rotating"`` (the schedule's contiguous window, modulo ``K``).

    Any other selection is refused when the spec loads
    (:class:`~repro.scenarios.spec.AttackSpec`).  A rotating schedule goes
    with rotating selection and only with it, a ramping schedule needs its
    ``q_end``, and no schedule may reach ``q > K``: all are refused before
    any round by :meth:`~repro.scenarios.runner.ScenarioRunner.check`.
    """

    def __init__(self, schedule: ScheduleSpec, selection: str) -> None:
        self.schedule = schedule
        self.selection = selection
        self._omniscient: dict[int, OmniscientSelector] = {}

    def select(
        self,
        assignment: BipartiteAssignment,
        iteration: int,
        rng: np.random.Generator,
    ) -> tuple[int, ...]:
        q = self.schedule.q_at(iteration)
        K = assignment.num_workers
        if q == 0:
            return ()
        if self.selection == "rotating":
            offset = self.schedule.window_offset(iteration)
            return tuple(sorted((offset + i) % K for i in range(q)))
        if self.selection == "random":
            return tuple(
                int(w) for w in sorted(rng.choice(K, size=q, replace=False))
            )
        if q not in self._omniscient:
            self._omniscient[q] = OmniscientSelector(q)
        return self._omniscient[q].select(assignment, iteration, rng)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ScheduledSelector({self.schedule.kind!r}, q={self.schedule.q}, "
            f"selection={self.selection!r})"
        )
