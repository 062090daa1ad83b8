"""Discrete-event round engine: timestamped arrivals, deadline/quorum close.

Every round ends here.  The parameter server watches the round's ``f x r``
gradient messages arrive and must decide when to stop waiting.  This module
models that decision as a discrete-event simulation:

* every (file, slot) message gets an **arrival time** — worker compute time
  plus per-message network cost from :class:`~repro.cluster.timing.CostModel`,
  shifted by realized fault delays (:func:`repro.cluster.faults.
  arrival_delays`); crashed / timed-out senders never arrive (``inf``);
* the PS processes arrivals in time order and **accepts** a message unless
  the round **deadline** has passed (exclusive: an arrival at exactly the
  deadline is late, matching :class:`StragglerInjector`'s timeout convention)
  or the message's file already closed by reaching its **quorum** of arrived
  copies;
* rejected-but-sent messages are recorded as ``"late"``
  :class:`~repro.cluster.faults.FaultEvent`\\ s.

The engine never writes the vote tensor.  Its ``accepted`` mask travels with
the round, and the vote counts each file over its accepted copies only: a
copy that did not arrive, or arrived late, abstains, and a file with no
accepted copy abstains from the robust stage as well.

With :attr:`AsyncRuntime.groups` the workers split into contiguous,
balanced groups and the quorum closes per (file, group) cell instead of per
file; the vote itself is the same.

Clock model
-----------

The round clock starts at 0 when the PS broadcasts parameters.  The round
ends at:

* the last file-closing arrival, when every file reaches its quorum (with no
  quorum configured the implicit quorum is the full replication ``r``, so
  this is the last accepted arrival);
* otherwise the deadline, when one is set — the PS gives up waiting;
* otherwise (``deadline=inf`` and some message never arrives) the last
  accepted arrival: nothing else will ever come, so the simulation closes
  the round there instead of waiting forever.

The synchronous round
---------------------

A cluster given no runtime runs this engine with an all-zero
:class:`~repro.cluster.timing.CostModel` and, as its deadline, its largest
straggler timeout (``inf`` without one, or when some straggler injector has
none).  Every message then arrives at its sender's straggler delay: the PS
waits for every copy that arrives, and the clock reads the slowest surviving
straggler, or the timeout when the PS gave up on someone.  A crash and a slow worker look the same from the PS, so a round
that set a timeout and lost a worker to dropout also waits until the
timeout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.faults import FaultEvent
from repro.cluster.timing import CostModel
from repro.core.backend import CLOCK_DTYPE
from repro.core.vote_tensor import VoteTensor
from repro.exceptions import ConfigurationError
from repro.graphs.bipartite import BipartiteAssignment

__all__ = [
    "AsyncRuntime",
    "AsyncRoundOutcome",
    "EventDrivenRound",
    "UplinkSchedule",
]

LATE_KIND = "late"
"""``FaultEvent.kind`` recorded for sent-but-rejected messages."""


@dataclass(frozen=True)
class AsyncRuntime:
    """Configuration of the event-driven round loop.

    Attributes
    ----------
    deadline:
        Round deadline in simulated seconds (exclusive: a message arriving at
        exactly ``deadline`` is late).  ``inf`` waits for every message that
        will ever arrive.
    quorum:
        Per-file close threshold: a file stops accepting copies once this
        many arrived.  ``None`` waits for all ``r`` copies (or the deadline).
    groups:
        Number of contiguous, balanced worker groups ``G``: the quorum then
        closes per (file, group) cell instead of per file (see
        :meth:`EventDrivenRound.collect`).  ``None`` keeps one cell per file.
    cost_model:
        Coefficients for compute/network arrival times.
    """

    deadline: float = float("inf")
    quorum: int | None = None
    groups: int | None = None
    cost_model: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if not self.deadline > 0.0:  # also rejects NaN
            raise ConfigurationError(
                f"deadline must be positive (or inf), got {self.deadline}"
            )
        if self.quorum is not None and self.quorum < 1:
            raise ConfigurationError(f"quorum must be >= 1, got {self.quorum}")
        if self.groups is not None and self.groups < 1:
            raise ConfigurationError(f"groups must be >= 1, got {self.groups}")


@dataclass
class AsyncRoundOutcome:
    """What the event loop observed for one round.

    Attributes
    ----------
    arrivals:
        ``(f, r)`` arrival time of each message (``inf`` = never sent).
    accepted:
        ``(f, r)`` bool mask of the messages the PS accepted.
    round_time:
        Simulated round duration (see the module's clock model).
    file_close_times:
        ``(f,)`` time each file reached its quorum (``inf`` if it never did
        and the PS closed it at the deadline / end of stream).
    deadline_fired:
        True when the round ended because the deadline expired with at least
        one file still open.
    late_events:
        ``"late"`` :class:`FaultEvent`\\ s for sent-but-rejected messages, in
        rejection (time) order.
    group_close_times:
        ``(f, G)`` time each (file, group) quorum cell closed, for rounds
        collected with :attr:`AsyncRuntime.groups` (``inf`` for cells that
        never closed, and for groups that hold no copy of that file).
        ``None`` when the quorum is per file.
    """

    arrivals: np.ndarray
    accepted: np.ndarray
    round_time: float
    file_close_times: np.ndarray
    deadline_fired: bool
    late_events: tuple[FaultEvent, ...]
    group_close_times: np.ndarray | None = None


class UplinkSchedule:
    """When each of a round's ``(f, r)`` messages reaches the PS.

    Worker ``w`` finishes computing after processing all of its assigned
    files (``sum_i n_i * d * compute_per_sample_per_param`` over its files),
    then transmits one ``d``-float message per file in ascending file order;
    its ``k``-th message arrives ``(k + 1)`` message-costs after compute ends
    (serialized uplink).  Workers run in parallel.  Each message's sender
    and queue position depend on the assignment only, so they are computed
    once here; a round pays a few array operations.
    """

    def __init__(self, assignment: BipartiteAssignment) -> None:
        workers = assignment.worker_slot_matrix()
        senders = workers.ravel()
        # A stable sort by sender lists each worker's messages in file order.
        by_sender = np.argsort(senders, kind="stable")
        first = np.searchsorted(senders[by_sender], senders[by_sender])
        position = np.empty(senders.size, dtype=CLOCK_DTYPE)
        position[by_sender] = np.arange(1, senders.size + 1) - first
        self.workers = workers
        self.num_workers = assignment.num_workers
        self._queue_position = position.reshape(workers.shape)

    def arrival_times(
        self,
        cost_model: CostModel,
        dim: int,
        samples_per_file: np.ndarray,
        delays: np.ndarray,
    ) -> np.ndarray:
        """``(f, r)`` arrival times of one round's messages.

        ``samples_per_file`` is the ``(f,)`` sample count of each file in
        this round's batch partition (integer-valued: each worker's sum is
        exact in any order).  ``delays`` is the ``(K,)`` extra delay of each
        worker's messages (``inf``: they never arrive), from
        :func:`repro.cluster.faults.arrival_delays`.
        """
        samples = np.asarray(samples_per_file, dtype=CLOCK_DTYPE).ravel()
        f, r = self.workers.shape
        if samples.shape != (f,):
            raise ConfigurationError(
                f"samples_per_file has shape {samples.shape}, expected ({f},)"
            )
        per_message = (
            dim * cost_model.network_per_float + cost_model.network_latency_per_message
        )
        worker_samples = np.bincount(
            self.workers.ravel(), weights=np.repeat(samples, r), minlength=self.num_workers
        )
        compute = worker_samples * dim * cost_model.compute_per_sample_per_param
        return compute[self.workers] + self._queue_position * per_message + delays[self.workers]


class EventDrivenRound:
    """The PS-side event loop: collect arrivals until deadline or quorum."""

    def __init__(self, runtime: AsyncRuntime) -> None:
        self.runtime = runtime

    def collect(self, tensor: VoteTensor, arrivals: np.ndarray) -> AsyncRoundOutcome:
        """Run the event loop over one round's arrival schedule.

        Processes arrivals in time order (ties broken by (file, slot) for
        determinism), accepting each message unless it is at/after the
        deadline or its file already closed.  Sent-but-rejected messages are
        recorded as ``"late"`` fault events; never-sent ones (``inf``
        arrivals) are simply not accepted.  ``tensor`` supplies the senders
        and is not written: the vote reads the ``accepted`` mask.

        With :attr:`AsyncRuntime.groups` set, the ``K`` workers (every
        worker holds a file, so ``K`` is the largest worker index plus one)
        split into that many contiguous, balanced groups, and the quorum is
        tracked per *(file, group)* cell instead of per file: each cell
        closes independently once ``min(quorum, local copies)`` arrived
        (clamped, since a group may hold fewer than ``quorum`` of a file's
        replicas), and the file is closed when all of its non-empty cells
        are.  A copy bound for an already-closed cell is late even while
        other groups of the same file remain open.  Without a quorum every
        cell waits for all of its copies, which is the per-file behaviour.
        """
        arrivals = np.asarray(arrivals, dtype=CLOCK_DTYPE)
        workers = tensor.workers
        if arrivals.shape != workers.shape:
            raise ConfigurationError(
                f"arrival matrix has shape {arrivals.shape}, expected "
                f"{workers.shape}"
            )
        f, r = arrivals.shape
        quorum = self.runtime.quorum if self.runtime.quorum is not None else r
        if quorum > r:
            raise ConfigurationError(
                f"quorum {quorum} exceeds replication {r}: no file could close"
            )
        deadline = self.runtime.deadline

        # Cell layout: without groups one cell per file needing `quorum`
        # copies; with groups one cell per (file, group) needing
        # min(quorum, local copies), so an empty cell needs none.
        num_groups = self.runtime.groups or 1
        if self.runtime.groups is None:
            cell_of = np.repeat(np.arange(f), r)
            need = np.full(f, quorum)
        else:
            members = np.array_split(np.arange(int(workers.max()) + 1), num_groups)
            group_of = np.repeat(np.arange(num_groups), [m.size for m in members])
            cell_of = (np.arange(f)[:, None] * num_groups + group_of[workers]).ravel()
            need = np.minimum(quorum, np.bincount(cell_of, minlength=f * num_groups))

        # One stable sort of the row-major matrix is the (time, file * r +
        # slot) order; the messages that never arrive (inf) sort last.
        flat = arrivals.ravel()
        order = np.argsort(flat, kind="stable")
        order = order[: np.count_nonzero(flat < np.inf)]
        times = flat[order].tolist()
        cells = cell_of[order].tolist()
        wanted = need.tolist()
        counts = [0] * len(wanted)
        cell_close = np.full(len(wanted), np.inf, dtype=CLOCK_DTYPE)
        taken: list[int] = []  # positions in `order`
        late: list[int] = []
        last_accept = 0.0
        for position, (time, cell) in enumerate(zip(times, cells)):
            if time >= deadline:  # so is every later arrival
                late.extend(range(position, len(times)))
                break
            if counts[cell] >= wanted[cell]:
                late.append(position)
                continue
            taken.append(position)
            counts[cell] += 1
            last_accept = time
            if counts[cell] == wanted[cell]:
                cell_close[cell] = time

        accepted = np.zeros(f * r, dtype=bool)
        accepted[order[taken]] = True
        # A file closes with the last of its non-empty cells.
        close_times = np.where(need > 0, cell_close, -np.inf).reshape(f, num_groups).max(axis=1)
        all_closed = bool(close_times.max() < np.inf)
        if all_closed:
            round_time = float(close_times.max())
        elif np.isfinite(deadline):
            round_time = float(deadline)
        else:
            # Some slot never arrives and there is no deadline: close the
            # round once the stream is exhausted (see the clock model note).
            round_time = last_accept
        deadline_cut = bool(times) and times[-1] >= deadline

        late_events: tuple[FaultEvent, ...] = ()
        if late:
            late_files, late_slots = np.divmod(order[late], r)
            late_events = tuple(
                FaultEvent(kind=LATE_KIND, worker=w, file=i, slot=k, delay=t, dropped=True)
                for w, i, k, t in zip(
                    workers[late_files, late_slots].tolist(),
                    late_files.tolist(),
                    late_slots.tolist(),
                    [times[p] for p in late],
                )
            )
        return AsyncRoundOutcome(
            arrivals=arrivals,
            accepted=accepted.reshape(f, r),
            round_time=round_time,
            file_close_times=close_times,
            deadline_fired=deadline_cut or (not all_closed and np.isfinite(deadline)),
            late_events=late_events,
            group_close_times=(
                None
                if self.runtime.groups is None
                else cell_close.reshape(f, num_groups)
            ),
        )
