"""Discrete-event round engine: timestamped arrivals, deadline/quorum close.

The synchronous simulator treats a round as one atomic step: every worker's
return is present by construction and faults are post-hoc tensor edits.  A
real parameter server instead watches a *message stream* and must decide when
to stop waiting.  This module models that decision as a discrete-event
simulation over the round's ``f x r`` gradient messages:

* every (file, slot) message gets an **arrival time** — worker compute time
  plus per-message network cost from :class:`~repro.cluster.timing.CostModel`,
  shifted by realized fault delays (:func:`repro.cluster.faults.
  arrival_perturbations`); crashed / timed-out senders never arrive
  (``inf``);
* the PS processes arrivals in time order and **accepts** a message unless
  the round **deadline** has passed (exclusive: an arrival at exactly the
  deadline is late, matching :class:`StragglerInjector`'s timeout convention)
  or the message's file already closed by reaching its **quorum** of arrived
  copies;
* rejected-but-sent messages are recorded as ``"late"``
  :class:`~repro.cluster.faults.FaultEvent`\\ s and their slots are zeroed in
  the vote tensor exactly as a timeout-abandoned straggler is zeroed.

Downstream aggregation then sees a missing copy in one of two ways.  By
default it is a zero vote, the fault injectors' convention.  With
:attr:`AsyncRuntime.partial` the accepted mask travels with the round and
the vote skips the missing copies (a file with none is a zero row).  Two
conventions for one fact is an open item (ROADMAP item 2).

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

Sync equivalence
----------------

With ``deadline=inf`` and no quorum the engine accepts every message that
arrives at all.  Because payload faults are applied by the *synchronous*
injector pass before the engine runs (identical RNG streams and composition
order), and never-arriving slots were already zeroed by that pass, the
resulting vote tensor is bit-identical to the synchronous path by
construction — property-tested across pipelines x attacks x faults.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.faults import FaultEvent
from repro.cluster.timing import CostModel
from repro.core.vote_tensor import VoteTensor
from repro.exceptions import ConfigurationError
from repro.graphs.bipartite import BipartiteAssignment

__all__ = [
    "AsyncRuntime",
    "AsyncRoundOutcome",
    "EventDrivenRound",
    "base_arrival_times",
    "perturbed_arrival_times",
]

LATE_KIND = "late"
"""``FaultEvent.kind`` recorded for sent-but-rejected messages."""

_TIME_DTYPE = np.dtype(np.float64)  # repro-lint: disable=DTYPE-001 (simulated clock is wall-time seconds, float64 regardless of the working gradient dtype)
"""Dtype of every arrival/deadline array in the event simulation."""


@dataclass(frozen=True)
class AsyncRuntime:
    """Configuration of the event-driven round loop.

    Attributes
    ----------
    deadline:
        Round deadline in simulated seconds (exclusive: a message arriving at
        exactly ``deadline`` is late).  ``inf`` waits for every message that
        will ever arrive — the sync-equivalent mode.
    quorum:
        Per-file close threshold: a file stops accepting copies once this
        many arrived.  ``None`` waits for all ``r`` copies (or the deadline).
    partial:
        When True, downstream aggregation votes only over the accepted copies
        of each file (the :class:`AsyncRoundOutcome` mask) instead of
        treating missing slots as zero votes.
    groups:
        Number of contiguous, balanced worker groups ``G``: the quorum then
        closes per (file, group) cell instead of per file (see
        :meth:`EventDrivenRound.collect`).  ``None`` keeps one cell per file.
    cost_model:
        Coefficients for compute/network arrival times.
    """

    deadline: float = float("inf")
    quorum: int | None = None
    partial: bool = False
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


def base_arrival_times(
    assignment: BipartiteAssignment,
    cost_model: CostModel,
    dim: int,
    samples_per_file: np.ndarray,
) -> np.ndarray:
    """Unperturbed ``(f, r)`` arrival times of one round's messages.

    Worker ``w`` finishes computing after processing all of its assigned
    files (``sum_i n_i * d * compute_per_sample_per_param`` over its files),
    then transmits one ``d``-float message per file in assignment order; its
    ``k``-th message arrives ``(k + 1)`` message-costs after compute ends
    (serialized uplink).  Workers run in parallel.

    Parameters
    ----------
    assignment:
        The round's worker/file graph.
    cost_model:
        Compute / network coefficients.
    dim:
        Gradient dimensionality ``d``.
    samples_per_file:
        ``(f,)`` per-file sample counts of this round's batch partition.
    """
    samples = np.asarray(samples_per_file, dtype=_TIME_DTYPE).ravel()
    if samples.shape != (assignment.num_files,):
        raise ConfigurationError(
            f"samples_per_file has shape {samples.shape}, expected "
            f"({assignment.num_files},)"
        )
    per_message = (
        dim * cost_model.network_per_float + cost_model.network_latency_per_message
    )
    workers = assignment.worker_slot_matrix()
    arrivals = np.empty(workers.shape, dtype=_TIME_DTYPE)
    for w in range(assignment.num_workers):
        files = assignment.files_of_worker(w)
        compute = (
            float(samples[list(files)].sum())
            * dim
            * cost_model.compute_per_sample_per_param
        )
        for rank, i in enumerate(files):
            k = int(np.searchsorted(workers[i], w))
            arrivals[i, k] = compute + (rank + 1) * per_message
    return arrivals


def perturbed_arrival_times(
    base: np.ndarray,
    workers: np.ndarray,
    extra_delay: dict[int, float],
    never_arrives: set[int],
) -> np.ndarray:
    """Apply realized fault perturbations to a base arrival matrix.

    ``extra_delay`` shifts every message of a worker by its straggler delay;
    ``never_arrives`` (crashes, timeout-dropped stragglers) maps to ``inf``.
    Inputs come from :func:`repro.cluster.faults.arrival_perturbations`.
    """
    arrivals = base.copy()
    for worker, delay in extra_delay.items():
        arrivals[workers == worker] += delay
    for worker in never_arrives:
        arrivals[workers == worker] = np.inf
    return arrivals


class EventDrivenRound:
    """The PS-side event loop: collect arrivals until deadline or quorum."""

    def __init__(self, runtime: AsyncRuntime) -> None:
        self.runtime = runtime

    def collect(self, tensor: VoteTensor, arrivals: np.ndarray) -> AsyncRoundOutcome:
        """Run the event loop over one round's arrival schedule.

        Processes arrivals in time order (ties broken by (file, slot) for
        determinism), accepting each message unless it is at/after the
        deadline or its file already closed.  Sent-but-rejected slots are
        zeroed in ``tensor`` — the same convention the synchronous straggler
        timeout uses — and recorded as ``"late"`` fault events.  Never-sent
        slots (``inf`` arrivals) are left alone: the injector pass that
        produced them already zeroed (and possibly further perturbed) them.
        Whether a missing copy then counts as a zero vote or abstains is the
        runtime's ``partial`` choice (see the module docstring).

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
        arrivals = np.asarray(arrivals, dtype=_TIME_DTYPE)
        if arrivals.shape != tensor.workers.shape:
            raise ConfigurationError(
                f"arrival matrix has shape {arrivals.shape}, expected "
                f"{tensor.workers.shape}"
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
        # min(quorum, local copies).  The loop below only sees cells.
        num_groups = self.runtime.groups
        if num_groups is None:
            num_groups = 1
            cell_of = np.broadcast_to(
                np.arange(f, dtype=np.int64)[:, None], (f, r)
            )
            cell_quorum = np.full(f, quorum, dtype=np.int64)
        else:
            members = np.array_split(np.arange(int(tensor.workers.max()) + 1), num_groups)
            group_of = np.repeat(np.arange(num_groups), [m.size for m in members])
            cell_of = np.arange(f, dtype=np.int64)[:, None] * num_groups + group_of[tensor.workers]
            cell_slots = np.bincount(cell_of.ravel(), minlength=f * num_groups)
            cell_quorum = np.minimum(quorum, cell_slots)
        open_cells = np.bincount(
            np.unique(cell_of), minlength=cell_quorum.size
        ).astype(bool)
        cells_left = np.full(f, 0, dtype=np.int64)
        np.add.at(cells_left, np.unique(cell_of) // num_groups, 1)

        # Deterministic heap: (time, seq) with seq in (file, slot) row-major
        # order so simultaneous arrivals process in a reproducible order.
        heap: list[tuple[float, int, int, int]] = [
            (float(arrivals[i, k]), i * r + k, i, k)
            for i in range(f)
            for k in range(r)
            if np.isfinite(arrivals[i, k])
        ]
        heapq.heapify(heap)

        counts = np.zeros(cell_quorum.size, dtype=np.int64)
        accepted = np.zeros((f, r), dtype=bool)
        close_times = np.full(f, np.inf, dtype=_TIME_DTYPE)
        cell_close_times = np.full(cell_quorum.size, np.inf, dtype=_TIME_DTYPE)
        late: list[FaultEvent] = []
        last_accept = 0.0
        deadline_cut = False
        while heap:
            time, _, i, k = heapq.heappop(heap)
            cell = int(cell_of[i, k])
            if time >= deadline:
                deadline_cut = True
                late.append(self._late_event(tensor, i, k, time))
                continue
            if counts[cell] >= cell_quorum[cell]:
                late.append(self._late_event(tensor, i, k, time))
                continue
            accepted[i, k] = True
            counts[cell] += 1
            last_accept = time
            if counts[cell] == cell_quorum[cell]:
                cell_close_times[cell] = time
                cells_left[i] -= 1
                if cells_left[i] == 0:
                    close_times[i] = time

        all_closed = bool((counts >= cell_quorum)[open_cells].all())
        if all_closed:
            round_time = float(close_times.max())
        elif np.isfinite(deadline):
            round_time = float(deadline)
        else:
            # Some slot never arrives and there is no deadline: close the
            # round once the stream is exhausted (see the clock model note).
            round_time = last_accept
        deadline_fired = deadline_cut or (not all_closed and np.isfinite(deadline))

        # Zero only the sent-but-rejected (late) slots.  Never-arrived slots
        # were already zeroed by the synchronous injector pass — and later
        # injectors (message corruption) may have rewritten them since, a
        # composition the sync path defines and deadline=inf must reproduce
        # bit-exactly, so the engine must not touch them again.
        if late:
            tensor.zero_slots(
                np.array([e.file for e in late], dtype=np.int64),
                np.array([e.slot for e in late], dtype=np.int64),
            )
        return AsyncRoundOutcome(
            arrivals=arrivals,
            accepted=accepted,
            round_time=round_time,
            file_close_times=close_times,
            deadline_fired=deadline_fired,
            late_events=tuple(late),
            group_close_times=(
                None
                if self.runtime.groups is None
                else cell_close_times.reshape(f, num_groups)
            ),
        )

    @staticmethod
    def _late_event(tensor: VoteTensor, file: int, slot: int, time: float) -> FaultEvent:
        return FaultEvent(
            kind=LATE_KIND,
            worker=int(tensor.workers[file, slot]),
            file=file,
            slot=slot,
            delay=float(time),
            dropped=True,
        )
