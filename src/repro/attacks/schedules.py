"""Time-varying adversary schedules.

The paper's experiments fix the Byzantine budget ``q`` for a whole run, but
real deployments face adversaries that come and go: compromised machines get
re-imaged, new ones fall, botnets grow.  An :class:`AdversarySchedule` maps
the iteration index to that round's budget ``q_t`` (and, for the rotating
adversary, to the concrete compromised set), and
:class:`ScheduledSelector` adapts a schedule to the
:class:`~repro.attacks.selection.ByzantineSelector` interface so the existing
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

from dataclasses import dataclass

import numpy as np

from repro.attacks.selection import ByzantineSelector, OmniscientSelector
from repro.exceptions import AttackError, ConfigurationError
from repro.graphs.bipartite import BipartiteAssignment

__all__ = ["AdversarySchedule", "ScheduledSelector"]

_KINDS = ("static", "ramping", "rotating")


@dataclass(frozen=True)
class AdversarySchedule:
    """Declarative description of how the Byzantine budget evolves.

    Attributes
    ----------
    kind:
        ``"static"``, ``"ramping"`` or ``"rotating"``.
    q:
        The budget (``static`` / ``rotating``) or the ramp start (``ramping``
        uses ``q`` as ``q_start`` when ``q_end`` is set).
    q_end:
        Final budget of a ramp (inclusive); ignored otherwise.
    period:
        Iterations between ramp steps / window rotations (>= 1).
    stride:
        Workers the rotating window advances by each period.
    """

    kind: str = "static"
    q: int = 0
    q_end: int | None = None
    period: int = 1
    stride: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown schedule kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.q < 0:
            raise ConfigurationError(f"q must be non-negative, got {self.q}")
        if self.q_end is not None and self.q_end < 0:
            raise ConfigurationError(f"q_end must be non-negative, got {self.q_end}")
        if self.period < 1:
            raise ConfigurationError(f"period must be >= 1, got {self.period}")
        if self.stride < 1:
            raise ConfigurationError(f"stride must be >= 1, got {self.stride}")
        if self.kind == "ramping" and self.q_end is None:
            raise ConfigurationError("ramping schedule requires q_end")

    def q_at(self, iteration: int) -> int:
        """Byzantine budget ``q_t`` of the given iteration."""
        if iteration < 0:
            raise AttackError(f"iteration must be non-negative, got {iteration}")
        if self.kind != "ramping" or self.q_end is None:
            return self.q
        step = iteration // self.period
        if self.q_end >= self.q:
            return min(self.q + step, self.q_end)
        return max(self.q - step, self.q_end)

    def window_offset(self, iteration: int) -> int:
        """Start of the rotating compromise window at the given iteration."""
        return (iteration // self.period) * self.stride

    @property
    def max_q(self) -> int:
        """Largest budget the schedule can ever request."""
        if self.kind == "ramping" and self.q_end is not None:
            return max(self.q, self.q_end)
        return self.q


class ScheduledSelector(ByzantineSelector):
    """Drives a :class:`ByzantineSelector` from an :class:`AdversarySchedule`.

    Parameters
    ----------
    schedule:
        The budget/rotation schedule.
    selection:
        How the ``q_t`` workers are picked each round: ``"omniscient"``
        (worst-case set for that budget, cached per ``(assignment, q)``),
        ``"random"`` (fresh uniform draw from the round generator) or
        ``"rotating"`` (the schedule's contiguous window, modulo ``K``).
    """

    def __init__(
        self,
        schedule: AdversarySchedule,
        selection: str = "omniscient",
    ) -> None:
        if selection not in ("omniscient", "random", "rotating"):
            raise ConfigurationError(
                f"unknown selection {selection!r}; expected 'omniscient', "
                "'random' or 'rotating'"
            )
        if selection == "rotating" and schedule.kind != "rotating":
            raise ConfigurationError(
                "selection='rotating' requires a rotating schedule"
            )
        if schedule.kind == "rotating" and selection != "rotating":
            raise ConfigurationError(
                "a rotating schedule defines the compromised set itself; "
                f"set selection='rotating' (got {selection!r})"
            )
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
        if q > K:
            raise AttackError(f"schedule requests q={q} > K={K} at t={iteration}")
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
