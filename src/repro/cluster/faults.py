"""Cluster fault injection: stragglers, worker dropout/churn, message corruption.

The paper's simulator assumes a clean synchronous round: every worker returns
every assigned file gradient, instantly and uncorrupted.  Real clusters are
not like that, and the robustness claim only matters if majority voting also
absorbs *benign* faults.  The injectors below perturb a round **after** the
attack has written its payloads, operating directly on the packed
:class:`~repro.core.vote_tensor.VoteTensor` so the PS-side pipelines see the
faults exactly as they would see adversarial returns:

* :class:`StragglerInjector` — a subset of workers is slow each round.  The
  delay is sampled from a deterministic or exponential model; with a timeout
  set, a worker that fails to arrive strictly before it (``delay >=
  timeout``) is abandoned by the PS and its votes are zeroed (a crash-like
  benign fault the vote must out-count).  The simulated round duration is
  the slowest surviving worker.
* :class:`DropoutInjector` — crash-stop churn: each live worker goes down
  with some probability and stays down for ``down_for`` rounds before
  rejoining; a downed worker's votes are zeroed.
* :class:`MessageCorruptionInjector` — each (file, slot) message is
  independently corrupted with some probability: zeroed, scaled, or hit with
  additive Gaussian noise (a torn/bit-flipped payload).

Every injector draws randomness only from the generator handed to
:meth:`FaultInjector.inject`; the simulator derives one independent stream
per injector per round (see ``TrainingCluster``), so enabling or re-ordering
fault injectors never perturbs the attack's RNG stream, and identical seeds
give bit-identical fault sequences.  Each injector's draws are a pure
function of ``(seed, round, shape)`` — never of the realized fault history
or of the tensor's copy-on-write override layout — so fault sequences are
replayable independently of what the attack or the other injectors did.

The event-driven runtime (:mod:`repro.cluster.events`) reuses the same
injectors: payload effects are injected exactly as above, and
:func:`arrival_perturbations` reexpresses the realized events as
arrival-time perturbations (per-worker extra delay, workers whose messages
never arrive) for the discrete-event round engine.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.vote_tensor import VoteTensor
from repro.exceptions import ConfigurationError
from repro.graphs.bipartite import BipartiteAssignment

__all__ = [
    "FaultContext",
    "FaultEvent",
    "FaultInjector",
    "StragglerInjector",
    "DropoutInjector",
    "MessageCorruptionInjector",
    "arrival_perturbations",
    "round_duration",
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
        True when the fault removed the contribution (votes zeroed).
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


def round_duration(events: "list[FaultEvent]", base: float = 0.0) -> float:
    """Simulated wall-clock of a *synchronous* round: the slowest survivor.

    Workers abandoned at a timeout do not extend the round beyond their
    recorded (already clamped) delay.  This is the legacy lockstep model —
    the PS waits for the slowest surviving worker regardless of quorum.  The
    event-driven runtime does **not** use it: there the round duration comes
    from the engine's clock (deadline/quorum semantics, see
    :mod:`repro.cluster.events`), which under quorum aggregation ends the
    round at the quorum-satisfying arrival rather than the slowest survivor.
    """
    return max((event.delay for event in events), default=0.0) + base


def arrival_perturbations(
    events: "Sequence[FaultEvent]",
) -> tuple[dict[int, float], set[int]]:
    """Reexpress realized fault events as arrival-time perturbations.

    The event-driven runtime injects payload faults through the same
    injectors as the synchronous path (identical RNG streams), then maps the
    realized events onto message timing:

    * a surviving straggler delays every message its worker sends by the
      sampled amount;
    * a dropped straggler (PS timeout) or a crashed worker (dropout) never
      delivers — its messages get an infinite arrival time, which the engine
      zeroes exactly like the synchronous path zeroes abandoned votes;
    * corruption perturbs payloads in flight but not timing.

    Returns ``(extra_delay, never_arrives)``: per-worker added delay in
    simulated seconds, and the set of workers whose messages never arrive.
    """
    extra_delay: dict[int, float] = {}
    never_arrives: set[int] = set()
    for event in events:
        if event.kind == StragglerInjector.kind:
            if event.dropped:
                never_arrives.add(event.worker)
            else:
                extra_delay[event.worker] = (
                    extra_delay.get(event.worker, 0.0) + event.delay
                )
        elif event.kind == DropoutInjector.kind and event.dropped:
            never_arrives.add(event.worker)
    return extra_delay, never_arrives


def _zero_worker_votes(tensor: VoteTensor, worker: int) -> int:
    """Zero every vote the given worker contributed; returns slots touched.

    Routed through the slot API: the affected (file, slot) pairs all point
    at one shared zero row.
    """
    files, slots = np.nonzero(tensor.workers == int(worker))
    tensor.zero_slots(files, slots)
    return int(files.size)


class FaultInjector(abc.ABC):
    """A per-round perturbation of the packed vote tensor."""

    kind: str = "abstract"

    @abc.abstractmethod
    def inject(self, tensor: VoteTensor, context: FaultContext) -> list[FaultEvent]:
        """Perturb ``tensor`` in place and return the realized fault events."""

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
        *strictly before* the timeout (``delay >= timeout`` — the deadline
        is exclusive, matching the event engine's deadline comparison): its
        votes are zeroed and its recorded delay is clamped to the timeout.
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
                _zero_worker_votes(tensor, int(worker))
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
            _zero_worker_votes(tensor, worker)
            events.append(FaultEvent(kind=self.kind, worker=worker, dropped=True))
        return events


class MessageCorruptionInjector(FaultInjector):
    """Independently corrupt (file, slot) gradient messages in flight.

    Parameters
    ----------
    probability:
        Per-message corruption probability.
    mode:
        ``"zero"`` (payload lost), ``"scale"`` (multiplied by ``factor``,
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
            noise = context.rng.standard_normal((files.size, d)) * self.factor
            tensor.add_to_slots(files, slots, noise)
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
