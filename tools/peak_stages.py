#!/usr/bin/env python
"""Which stage of a benchmark workload sets its ``tracemalloc`` peak.

    python tools/peak_stages.py adaptive-bulyan-noniid [--seed N] [--rounds N]

Runs one workload of ``benchmarks/e2e`` the way its ``peak_alloc_mb`` pass
does: a warmed-up session first (imports, lazy caches), then ``tracemalloc``
over a fresh session's build and ``--rounds`` ops (rounds; on
``async-hier-cells-traced`` an op is one campaign cell).  Every stage the
benchmark's per-layer table shims, plus the trainer build and a few robust
kernels, is wrapped in a shim that records, per stage, the memory held at
its entry and the highest peak reached inside it (children included), in
MiB.  The table is sorted by that peak, so its first row is what sets the
workload's peak and the rows below it are the next floors.  The test-set
evaluation (``nn.evaluate``) and the omniscient search
(``kernel.max_distortion``, inside ``attacks.selection``) have rows of their
own.  The shims themselves hold ≈ 0.025 MiB, so the peak reads that much
above ``run.py``'s.  The workload templates are only read.
"""

from __future__ import annotations

import argparse
import functools
import pathlib
import sys
import tracemalloc
from typing import Any, Callable

E2E = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
sys.path.insert(0, str(E2E))

import run  # noqa: E402  (sets the one-thread BLAS variables and puts src/ first)
from layers import (  # noqa: E402
    patch_build_stages,
    patch_campaign_path,
    patch_round_path,
)
from spans import Tracer  # noqa: E402
from workloads import WORKLOAD_NAMES, Workload  # noqa: E402

import repro.aggregation.bulyan as bulyan_module  # noqa: E402
import repro.aggregation.majority as majority_module  # noqa: E402
import repro.aggregation.median as median_module  # noqa: E402
import repro.attacks.adaptive as adaptive_module  # noqa: E402
import repro.attacks.alie as alie_module  # noqa: E402
import repro.attacks.selection as selection_module  # noqa: E402
import repro.training.trainer as trainer_module  # noqa: E402
from repro.cli import quiet_closed_stdout  # noqa: E402
from repro.core.vote_tensor import RowSelection  # noqa: E402
from repro.scenarios.runner import ScenarioRunner  # noqa: E402

_MIB = float(1 << 20)

#: names the round path resolves at call time, beyond the per-layer table:
#: ``(owner, attribute, stage)``
KERNELS = (
    (ScenarioRunner, "build_trainer", "scenarios.build_trainer"),
    (trainer_module, "evaluate_model", "nn.evaluate"),
    (selection_module, "max_distortion", "kernel.max_distortion"),
    (majority_module, "override_content_ids", "kernel.override_content_ids"),
    (RowSelection, "lanes", "kernel.RowSelection.lanes"),
    (bulyan_module, "bulyan_selection", "kernel.bulyan_selection"),
    (bulyan_module, "coordinate_median", "kernel.coordinate_median"),
    (median_module, "coordinate_median", "kernel.coordinate_median"),
    (adaptive_module, "column_mean_std", "kernel.column_mean_std"),
    (alie_module, "column_mean_std", "kernel.column_mean_std"),
)


class PeakTracer(Tracer):
    """A :class:`Tracer` whose shims record traced memory instead of time.

    ``stages[name]`` is ``[calls, held at entry, peak inside]`` of the call
    that reached the highest peak.  Each shim resets ``tracemalloc``'s peak
    on entry after handing the peak so far to the stage that encloses it,
    so every stage sees its own inclusive peak and :attr:`peak` is the
    peak of the whole traced run.
    """

    def __init__(self) -> None:
        super().__init__()
        self.stages: dict[str, list[int]] = {}
        self.peak = 0
        self._running: list[list[int]] = []  # one [peak so far] per open stage

    def shim(
        self,
        original: Callable[..., Any],
        name: str,
        on_return: "Callable[[Tracer, tuple, Any], None] | None" = None,
    ) -> Callable[..., Any]:
        running, stages = self._running, self.stages

        @functools.wraps(original)
        def measured(*args: Any, **kwargs: Any) -> Any:
            held, peak = tracemalloc.get_traced_memory()
            self.peak = max(self.peak, peak)
            if running:
                running[-1][0] = max(running[-1][0], peak)
            tracemalloc.reset_peak()
            frame = [held]
            running.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                running.pop()
                inside = max(frame[0], tracemalloc.get_traced_memory()[1])
                if running:
                    running[-1][0] = max(running[-1][0], inside)
                row = stages.setdefault(name, [0, 0, -1])
                row[0] += 1
                if inside > row[2]:
                    row[1], row[2] = held, inside
            if on_return is not None:
                on_return(self, args, result)
            return result

        return measured

    def finish(self) -> int:
        """The traced run's peak, once the last shim has returned."""
        self.peak = max(self.peak, tracemalloc.get_traced_memory()[1])
        return self.peak


def stage_peaks(name: str, seed: int, rounds: int) -> tuple[float, dict[str, tuple]]:
    """``(peak MiB, {stage: (calls, entry MiB, peak MiB)})`` of one traced
    session of ``rounds`` ops, after a warm-up session of the same length."""
    workload = Workload(name, seed)
    warm = run.warmed_session(workload)
    for _ in range(rounds - 1):
        warm.op()
    del warm
    tracer = PeakTracer()
    patch_build_stages(tracer)
    patch_round_path(tracer)
    if workload.is_cells:
        patch_campaign_path(tracer)
    for owner, attr, stage in KERNELS:
        tracer.patch(owner, attr, stage)
    tracemalloc.start()
    try:
        session = workload.session(tracer)
        for _ in range(rounds):
            session.op()
        peak = tracer.finish()
    finally:
        tracemalloc.stop()
        tracer.restore()
    stages = {
        stage: (calls, entry / _MIB, inside / _MIB)
        for stage, (calls, entry, inside) in tracer.stages.items()
    }
    return peak / _MIB, stages


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--rounds", type=int,
        help=f"ops to trace (default: {run.PEAK_ROUNDS} rounds, or one cell, as run.py)",
    )
    args = parser.parse_args(argv)
    cells = args.workload == "async-hier-cells-traced"
    rounds = (1 if cells else run.PEAK_ROUNDS) if args.rounds is None else args.rounds
    if rounds < 1:
        parser.error("--rounds must be at least 1")
    peak, stages = stage_peaks(args.workload, args.seed, rounds)
    print(
        f"{args.workload} seed={args.seed} {'cells' if cells else 'rounds'}={rounds}: "
        f"peak {peak:.4f} MiB (build + ops, after a warm-up session)"
    )
    print(f"{'stage':32s} {'calls':>6s} {'entry MiB':>10s} {'peak MiB':>10s} {'above':>8s}")
    for stage, (calls, entry, inside) in sorted(stages.items(), key=lambda kv: -kv[1][2]):
        print(f"{stage:32s} {calls:6d} {entry:10.4f} {inside:10.4f} {inside - entry:8.4f}")
    return 0


if __name__ == "__main__":
    status = 0  # also when the reader stops early (``| head``)
    with quiet_closed_stdout():
        status = main()
    sys.exit(status)
