"""Cluster fault injection: stragglers, worker dropout/churn, message corruption.

The paper's simulator assumes a clean synchronous round: every worker returns
every assigned file gradient, instantly and uncorrupted.  Real clusters are
not like that, and the robustness claim only matters if majority voting also
absorbs *benign* faults.  The injectors below perturb a round **after** the
attack has written its payloads.  Only corruption touches the packed
:class:`~repro.core.vote_tensor.VoteTensor`; the availability faults only
emit events, and a copy that never arrives abstains from the vote:

* :class:`StragglerInjector` — a subset of workers is slow each round.  The
  delay is sampled from a deterministic or exponential model; with a timeout
  set, a worker that fails to arrive strictly before it (``delay >=
  timeout``) is abandoned by the PS: its copies are never delivered.
* :class:`DropoutInjector` — crash-stop churn: each live worker goes down
  with some probability and stays down for ``down_for`` rounds before
  rejoining; a downed worker delivers nothing.
* :class:`MessageCorruptionInjector` — each (file, slot) message is
  independently corrupted with some probability: zeroed, scaled, or hit with
  additive Gaussian noise (a torn/bit-flipped payload).  A corrupted message
  still arrives, so it still votes.

Every injector draws randomness only from the generator handed to
:meth:`FaultInjector.inject`; the round derives one independent stream per
injector per round (see :class:`repro.training.trainer.TrainingCluster`), so
enabling or re-ordering fault injectors never perturbs the attack's RNG
stream, and identical seeds
give bit-identical fault sequences.  Each injector's draws are a pure
function of ``(seed, round, shape)`` — never of the realized fault history
or of the tensor's copy-on-write override layout — so fault sequences are
replayable independently of what the attack or the other injectors did.

Corruption changes payloads; time is the event engine's
(:mod:`repro.cluster.events`), which ends every round.
:func:`arrival_delays` turns the realized events into each worker's arrival
delay (``inf`` for a worker whose messages never arrive), and the round's
clock and deadline follow from those arrivals.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.backend import CLOCK_DTYPE, DRAW_DTYPE
from repro.core.vote_tensor import VoteTensor
from repro.exceptions import ConfigurationError
from repro.graphs.bipartite import BipartiteAssignment
from repro.utils.arrays import LANE_BLOCK, block_ranges

__all__ = [
    "FaultContext",
    "FaultEvent",
    "FaultInjector",
    "StragglerInjector",
    "DropoutInjector",
    "MessageCorruptionInjector",
    "arrival_delays",
]


@dataclass(frozen=True)
class FaultContext:
    """What an injector can see when perturbing one round."""

    assignment: BipartiteAssignment
    iteration: int
    rng: np.random.Generator


@dataclass(frozen=True)
class FaultEvent:
    """One realized fault, recorded for traces and diagnostics.

    Attributes
    ----------
    kind:
        Event kind: ``"straggler"``, ``"dropout"`` or ``"corruption"`` for
        the injectors below, ``"late"`` for a message rejected by the
        event-driven runtime's deadline/quorum cutoff.
    worker:
        Affected worker.  Worker-level faults (stragglers, dropout) always
        record it; message-level faults (corruption, late messages) record
        the *sender* of the affected ``(file, slot)`` message, resolved via
        ``tensor.workers``, so traces can attribute every corrupted or
        discarded payload to a specific worker.
    file:
        Affected file for message-level faults, ``-1`` otherwise.
    slot:
        Replica slot of the affected message within the file's row, recorded
        by the event-runtime's ``"late"`` rejections; ``-1`` otherwise
        (for corruption events the slot is where ``worker`` sits in
        ``tensor.workers[file]``).
    delay:
        Simulated extra latency in seconds (stragglers), or the simulated
        arrival time of a ``"late"`` message; 0 otherwise.
    dropped:
        True when the fault removed the contribution: its copies were never
        delivered (or, for ``"late"``, not accepted), so they abstain from
        the vote.
    """

    kind: str
    worker: int = -1
    file: int = -1
    slot: int = -1
    delay: float = 0.0
    dropped: bool = False

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly form used by scenario traces (delay hex-exact).

        ``slot`` is omitted when absent (< 0): pre-existing event kinds
        serialize exactly as before, so golden traces recorded without slot
        attribution keep their digests.
        """
        out: dict[str, object] = {
            "kind": self.kind,
            "worker": self.worker,
            "file": self.file,
            "delay": float(self.delay).hex(),
            "dropped": self.dropped,
        }
        if self.slot >= 0:
            out["slot"] = self.slot
        return out


def arrival_delays(events: "Sequence[FaultEvent]", num_workers: int) -> np.ndarray:
    """Each worker's extra arrival delay this round, from the realized events.

    A surviving straggler delays every message its worker sends by the
    sampled amount; a worker two straggler entries picked is as late as the
    larger delay, so it still beats the timeout of the entry that drew it.
    A dropped straggler (PS timeout) or a crashed worker (dropout) never
    delivers: ``inf``.  Corruption perturbs payloads in flight but not
    timing.
    """
    delays = np.zeros(num_workers, dtype=CLOCK_DTYPE)
    for event in events:
        if event.dropped and event.kind in (StragglerInjector.kind, DropoutInjector.kind):
            delays[event.worker] = np.inf
        elif event.kind == StragglerInjector.kind:
            delays[event.worker] = max(delays[event.worker], event.delay)
    return delays


class FaultInjector(abc.ABC):
    """A per-round fault: events for the event engine, payloads for corruption."""

    kind: str = "abstract"

    @abc.abstractmethod
    def inject(self, tensor: VoteTensor, context: FaultContext) -> list[FaultEvent]:
        """Return the realized fault events (corruption also rewrites ``tensor``)."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"


class StragglerInjector(FaultInjector):
    """Slow workers with a configurable delay model and optional PS timeout.

    Parameters
    ----------
    count:
        How many workers straggle each round (drawn uniformly).
    delay_model:
        ``"fixed"`` (every straggler is ``delay`` seconds late) or
        ``"exponential"`` (delays drawn from Exp(mean=``delay``)).
    delay:
        The fixed delay or the exponential mean, in simulated seconds.
    timeout:
        When set, the PS abandons any straggler that does not arrive
        *strictly before* the timeout (``delay >= timeout``): its copies
        are never delivered and its recorded delay is clamped to the timeout
        (the clamp only keeps recorded fault events as they were).  A cluster without
        an event runtime makes the largest timeout its round deadline
        (none when some straggler injector has no timeout).
    """

    kind = "straggler"

    def __init__(
        self,
        count: int,
        delay_model: str = "exponential",
        delay: float = 1.0,
        timeout: float | None = None,
    ) -> None:
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count}")
        if delay_model not in ("fixed", "exponential"):
            raise ConfigurationError(
                f"unknown delay_model {delay_model!r}; expected 'fixed' or 'exponential'"
            )
        if not np.isfinite(delay) or delay <= 0:
            raise ConfigurationError(f"delay must be positive, got {delay}")
        if timeout is not None and timeout <= 0:
            raise ConfigurationError(f"timeout must be positive, got {timeout}")
        self.count = int(count)
        self.delay_model = delay_model
        self.delay = float(delay)
        self.timeout = None if timeout is None else float(timeout)

    def inject(self, tensor: VoteTensor, context: FaultContext) -> list[FaultEvent]:
        K = context.assignment.num_workers
        count = min(self.count, K)
        if count == 0:
            return []
        stragglers = np.sort(context.rng.choice(K, size=count, replace=False))
        if self.delay_model == "fixed":
            delays = np.full(count, self.delay)
        else:
            delays = context.rng.exponential(self.delay, size=count)
        events: list[FaultEvent] = []
        for worker, delay in zip(stragglers, delays):
            # Exclusive deadline: arrival must be strictly before the
            # timeout, so a delay exactly equal to it is abandoned too.
            dropped = self.timeout is not None and delay >= self.timeout
            if dropped:
                delay = self.timeout
            events.append(
                FaultEvent(
                    kind=self.kind,
                    worker=int(worker),
                    delay=float(delay),
                    dropped=bool(dropped),
                )
            )
        return events


class DropoutInjector(FaultInjector):
    """Crash-stop worker churn: workers go down and rejoin after a few rounds.

    Parameters
    ----------
    probability:
        Per-round probability that a live worker crashes.
    down_for:
        Rounds a crashed worker stays down before rejoining (>= 1).
    """

    kind = "dropout"

    def __init__(self, probability: float, down_for: int = 1) -> None:
        if not (0.0 <= probability <= 1.0):
            raise ConfigurationError(
                f"probability must be in [0, 1], got {probability}"
            )
        if down_for < 1:
            raise ConfigurationError(f"down_for must be >= 1, got {down_for}")
        self.probability = float(probability)
        self.down_for = int(down_for)
        self._down: dict[int, int] = {}

    def inject(self, tensor: VoteTensor, context: FaultContext) -> list[FaultEvent]:
        K = context.assignment.num_workers
        # One uniform draw per worker, every round, regardless of who is
        # already down: the RNG consumption is then a pure function of
        # (seed, iteration, K), never of the realized fault history.
        draws = context.rng.random(K)
        events: list[FaultEvent] = []
        for worker in range(K):
            remaining = self._down.get(worker, 0)
            if remaining > 0:
                self._down[worker] = remaining - 1
                if self._down[worker] == 0:
                    del self._down[worker]
            elif self.probability > 0.0 and draws[worker] < self.probability:
                self._down[worker] = self.down_for - 1
                if self._down[worker] == 0:
                    del self._down[worker]
                remaining = self.down_for
            else:
                continue
            events.append(FaultEvent(kind=self.kind, worker=worker, dropped=True))
        return events


class MessageCorruptionInjector(FaultInjector):
    """Independently corrupt (file, slot) gradient messages in flight.

    Parameters
    ----------
    probability:
        Per-message corruption probability.
    mode:
        ``"zero"`` (the payload arrives as zeros), ``"scale"`` (multiplied by ``factor``,
        e.g. an endianness/overflow bug) or ``"noise"`` (additive Gaussian
        noise of standard deviation ``factor``).
    factor:
        Scale multiplier or noise sigma, depending on ``mode``.
    """

    kind = "corruption"

    def __init__(
        self, probability: float, mode: str = "zero", factor: float = 10.0
    ) -> None:
        if not (0.0 <= probability <= 1.0):
            raise ConfigurationError(
                f"probability must be in [0, 1], got {probability}"
            )
        if mode not in ("zero", "scale", "noise"):
            raise ConfigurationError(
                f"unknown mode {mode!r}; expected 'zero', 'scale' or 'noise'"
            )
        if not np.isfinite(factor):
            raise ConfigurationError(f"factor must be finite, got {factor}")
        self.probability = float(probability)
        self.mode = mode
        self.factor = float(factor)

    def inject(self, tensor: VoteTensor, context: FaultContext) -> list[FaultEvent]:
        f, r, d = tensor.shape
        hit = context.rng.random((f, r)) < self.probability
        if not hit.any():
            return []
        files, slots = np.nonzero(hit)
        if self.mode == "zero":
            tensor.zero_slots(files, slots)
        elif self.mode == "scale":
            tensor.scale_slots(files, slots, self.factor)
        else:
            # Each slot's store row is filled in place, LANE_BLOCK coordinates
            # at a time, from one float64 block of scratch: the blocks of the
            # stream, in order, are the rows of one (m, d) draw.  noise + read
            # rounds as read + noise (IEEE addition commutes), and the store
            # row rounds the float64 sum to the working dtype once.
            noise = np.empty(min(d, LANE_BLOCK), dtype=DRAW_DTYPE)

            def noisy(current: np.ndarray, row: np.ndarray) -> None:
                for lo, hi in block_ranges(d, noise.size):
                    block = noise[: hi - lo]
                    context.rng.standard_normal(out=block)
                    np.multiply(block, self.factor, out=block)
                    np.add(block, current[lo:hi], out=block)
                    row[lo:hi] = block

            tensor.fill_slots(files, slots, noisy)
        # Attribution: each corrupted (file, slot) message records its sender
        # (slot -> worker via tensor.workers) alongside the file, so traces
        # can pin the exact cell; the slot itself is where the worker sits in
        # ``tensor.workers[file]`` and stays out of the event (and
        # its serialized form) so goldens recorded before the event-driven
        # runtime keep their digests.
        return [
            FaultEvent(
                kind=self.kind,
                worker=int(tensor.workers[i, k]),
                file=int(i),
            )
            for i, k in zip(files, slots)
        ]
