#!/usr/bin/env python3
"""End-to-end round benchmark: the measured Figure 12.

    python3 benchmarks/e2e/run.py --workload sync-alie-wide --seed 0 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --seed 0 --repeats 5 --out A.json      # every workload

Drives the real round path (``ScenarioRunner.build_trainer()`` +
``DistributedTrainer.run_iteration``, and ``campaigns.executor.execute_spec``)
on the four workloads under ``workloads/``, closed loop with one client.
``--trace 0`` measures the end-to-end metrics with nothing attached;
``--trace 1`` runs an untraced reference pass and a traced pass of the same
ops and reports the per-layer metrics.  Every metric is printed by name with
its unit and sample count, outputs are checked, a JSON result is written, and
when one workload and one trace mode are selected the last line of stdout is
the ``{"correct", "attempted", "failed", "metrics"}`` object the driver reads.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any

# One BLAS/OpenMP thread: two gave no speed-up on the 2-core sandbox, doubled
# CPU time and widened the run-to-run spread.  Must precede the NumPy import.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: the program under test is missing: no {ROOT / 'src' / 'repro'}")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
from layers import (  # noqa: E402
    SETUP_STAGES,
    layer_metrics,
    patch_build_stages,
    patch_campaign_path,
    patch_round_path,
)
from spans import END, NAME, START, Tracer  # noqa: E402
from workloads import WORKLOAD_NAMES, TrainerSession, Workload  # noqa: E402

from repro.campaigns.executor import execute_spec  # noqa: E402
from repro.cluster.timing import estimate_iteration_timing  # noqa: E402
from repro.scenarios.spec import ScenarioSpec  # noqa: E402

#: ``BENCHMARK.json`` is the contract: it names the metrics of each mode and
#: their units, and this program emits exactly those.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

MIN_ACCURACY = 0.9
BLOCKS = 5
#: fresh set-ups are timed for SETUP_SHARE of ``--seconds`` and at least
#: SETUP_BUILDS times (a 25 ms set-up needs many more samples than a 170 ms
#: one to be steady); the first SETUP_DISCARD pay cold-allocator cost that
#: later builds in the same process do not, and are dropped
SETUP_SHARE, SETUP_BUILDS, SETUP_DISCARD = 0.2, 9, 2
PEAK_ROUNDS = 5
STAGE_BUILDS = 3

clock = time.perf_counter_ns


# -- environment ---------------------------------------------------------------
def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def _cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict[str, Any]:
    """Provenance block written into every result."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# -- the driving loop ------------------------------------------------------------
@dataclass
class Drive:
    """What one closed-loop pass over a session observed."""

    walls: list[int] = field(default_factory=list)  # ns per completed op
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    digest: str = ""
    accuracy: float = float("nan")


def drive(session: Any, seconds: float, min_ops: int) -> Drive:
    """Run ops back to back for ``seconds``, and for at least ``min_ops`` ops.

    Each op is timed on its own; the checks between two ops are not timed.
    The digest/accuracy snapshot is taken after exactly ``min_ops`` ops, so
    it does not depend on how fast the machine is.
    """
    run = Drive()
    deadline = clock() + int(seconds * 1e9)
    while run.attempted < min_ops or clock() < deadline:
        run.attempted += 1
        start = clock()
        try:
            session.op()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            run.failures.append(f"op {run.attempted}: {exc!r}")
            continue
        run.walls.append(clock() - start)
        why = session.failure()
        if why is not None:
            run.failures.append(why)
        if run.attempted == min_ops:
            run.digest, run.accuracy = session.snapshot()
    return run


def warmed_session(workload: Workload, tracer: "Tracer | None" = None) -> Any:
    """A session whose first op (lazy caches, the omniscient search; for the
    cells workload, cell 0) has already run and is not part of any sample."""
    session = workload.session(tracer)
    session.op()
    if tracer is not None:
        tracer.reset()
    return session


def _percentile(sorted_values: "list[float]", share: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(share * len(sorted_values)))]


# -- end-to-end metrics (tracing off) --------------------------------------------
def time_setup(workload: Workload) -> float:
    """``ScenarioSpec.from_dict`` + ``build_trainer()`` + round 0, in seconds."""
    start = clock()
    TrainerSession(workload).op()
    return (clock() - start) / 1e9


def peak_alloc_mb(workload: Workload) -> float:
    """``tracemalloc`` peak over build + ``PEAK_ROUNDS`` rounds (cells: one cell)."""
    tracemalloc.start()
    try:
        session = workload.session()
        for _ in range(1 if workload.is_cells else PEAK_ROUNDS):
            session.op()
        return tracemalloc.get_traced_memory()[1] / float(1 << 20)
    finally:
        tracemalloc.stop()


def measure_end_to_end(workload: Workload, seconds: float) -> dict[str, Any]:
    setups: list[float] = []
    deadline = clock() + int(seconds * SETUP_SHARE * 1e9)
    while len(setups) < SETUP_BUILDS or clock() < deadline:
        setups.append(time_setup(workload))
    setups = setups[SETUP_DISCARD:]

    session = warmed_session(workload)
    run = drive(session, seconds, workload.check_ops)
    checks: dict[str, bool] = {"ops_ok": not run.failures}
    if workload.is_cells:
        first = session.records[0]
        again = execute_spec(ScenarioSpec.from_dict(workload.cell_spec(0)))
        checks["cell0_replays"] = (
            again.summary["final_params_digest"] == first.summary["final_params_digest"]
        )
    checks["accuracy_ok"] = run.accuracy >= MIN_ACCURACY

    per = workload.rounds_per_op
    round_ms = sorted(wall / per / 1e6 for wall in run.walls)
    size = max(1, len(run.walls) // BLOCKS)
    blocks = [run.walls[i:i + size] for i in range(0, size * BLOCKS, size)]
    rates = [len(block) * per / (sum(block) / 1e9) for block in blocks if block]
    metrics = {
        "round_ms_p50": statistics.median(round_ms) if round_ms else float("nan"),
        "rounds_per_s": statistics.median(rates) if rates else float("nan"),
        "setup_s": statistics.median(setups),
        "peak_alloc_mb": peak_alloc_mb(workload),
        "final_accuracy": run.accuracy,
    }
    return {
        "metrics": metrics,
        "checks": checks,
        "failures": run.failures,
        "attempted": run.attempted,
        "detail": {
            "samples": len(round_ms),
            "rounds": len(round_ms) * per,
            "round_ms_p90": _percentile(round_ms, 0.9) if round_ms else float("nan"),
            "setup_samples": len(setups),
            "final_params_digest": run.digest,
            "snapshot_after_ops": workload.check_ops,
        },
    }


# -- per-layer metrics (untraced reference pass + traced pass) ---------------------
def setup_stages(workload: Workload) -> dict[str, float]:
    """One traced set-up: milliseconds per build stage, selection and round 0."""
    tracer = Tracer()
    patch_build_stages(tracer)
    try:
        session = TrainerSession(workload, tracer)
        start = clock()
        session.op()
        first_round = clock() - start
    finally:
        tracer.restore()
    spent = {stage: 0 for stage in SETUP_STAGES}
    for row in tracer.spans:
        stage = "selection" if row[NAME] == "attacks.selection" else row[NAME]
        if stage in spent:
            spent[stage] += row[END] - row[START]
    spent["first_round"] = first_round
    return {f"setup.{stage}_ms": ns / 1e6 for stage, ns in spent.items()}


def analytic_split(workload: Workload) -> dict[str, float]:
    """``cluster/timing.py``'s cost-model split for the same configuration."""
    spec = ScenarioSpec.from_dict(workload.base_spec())
    timing = estimate_iteration_timing(
        workload.assignment,
        spec.training.batch_size,
        TrainerSession(workload).trainer.server.params.size,
        aggregator_name=spec.pipeline.aggregator,
        num_byzantine=spec.attack.schedule.q if spec.attack else 0,
    )
    return {
        "compute_share": timing.computation / timing.total,
        "communication_share": timing.communication / timing.total,
        "aggregation_share": timing.aggregation / timing.total,
    }


def measure_layers(workload: Workload, seconds: float) -> dict[str, Any]:
    reference = drive(warmed_session(workload), 0.0, workload.check_ops)

    tracer = Tracer()
    patch_round_path(tracer)
    if workload.is_cells:
        patch_campaign_path(tracer)
    try:
        traced = drive(warmed_session(workload, tracer), seconds, workload.check_ops)
    finally:
        tracer.restore()

    metrics = layer_metrics(tracer, traced.walls, workload.rounds_per_op)
    metrics["trace.overhead_share"] = (
        statistics.median(traced.walls) / statistics.median(reference.walls) - 1.0
    )
    stages = [setup_stages(workload) for _ in range(STAGE_BUILDS)]
    for name in stages[0]:
        metrics[name] = statistics.median(stage[name] for stage in stages)

    failures = reference.failures + traced.failures
    checks = {
        "ops_ok": not failures,
        "traced_digest_equals_untraced": bool(traced.digest) and traced.digest == reference.digest,
        "accuracy_ok": traced.accuracy >= MIN_ACCURACY,
    }
    return {
        "metrics": metrics,
        "checks": checks,
        "failures": failures,
        "attempted": traced.attempted,
        "detail": {
            "samples": len(traced.walls),
            "rounds": len(traced.walls) * workload.rounds_per_op,
            "final_params_digest": traced.digest,
            "untraced_params_digest": reference.digest,
            "snapshot_after_ops": workload.check_ops,
            "analytic_split": analytic_split(workload),
        },
        "spans": tracer.dump(),
    }


# -- one run and its report --------------------------------------------------------
def run_one(name: str, seed: int, seconds: float, trace: int) -> dict[str, Any]:
    """Measure one workload in one trace mode; print every metric by name."""
    workload = Workload(name, seed)
    print(f"== {name} seed={seed} trace={trace} spec_digest={workload.spec_digest}")
    result = (
        measure_layers(workload, seconds) if trace
        else measure_end_to_end(workload, seconds)
    )
    units = PER_LAYER if trace else END_TO_END
    detail = result["detail"]
    notes = {} if trace else {
        "round_ms_p50": f"(n={detail['samples']}; p90 {detail['round_ms_p90']:.3f} ms, not gated)",
        "rounds_per_s": f"(median of {BLOCKS} blocks, {detail['rounds']} rounds)",
        "setup_s": f"(median of {detail['setup_samples']} fresh builds)",
        "final_accuracy": f"(after {detail['snapshot_after_ops']} ops)",
    }
    for metric, unit in units.items():
        line = f"{metric:42s} {result['metrics'][metric]:14.6f} {unit}  {notes.get(metric, '')}"
        print(line.rstrip())
    if trace:
        split = detail["analytic_split"]
        print(
            f"{'analytic cost model (cluster/timing.py)':42s} "
            f"compute {split['compute_share']:.3f}  communication "
            f"{split['communication_share']:.3f}  aggregation {split['aggregation_share']:.3f}"
            f"  (n={detail['samples']} traced ops)"
        )
    print(f"final_params_digest {detail['final_params_digest']}")
    for check, passed in result["checks"].items():
        print(f"check {check}: {'ok' if passed else 'FAILED'}")
    for why in result["failures"][:10]:
        print(f"failed op: {why}")

    correct = all(result["checks"].values())
    failed = len(result["failures"]) if correct else result["attempted"]
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "spec_digest": workload.spec_digest,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {
            metric: {"value": result["metrics"][metric], "unit": unit}
            for metric, unit in units.items()
        },
        "checks": result["checks"],
        "detail": detail,
        "spans": result.get("spans"),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both modes")
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="end-to-end runs per workload (seed, seed+1, ...), workloads round-robin",
    )
    parser.add_argument("--quick", action="store_true", help="smoke: same as --seconds 1")
    parser.add_argument("--out", type=pathlib.Path, help="result JSON (default .bench_e2e/)")
    args = parser.parse_args(argv)

    names = (args.workload,) if args.workload else WORKLOAD_NAMES
    seconds = 1.0 if args.quick else args.seconds
    env = environment()
    print(json.dumps({"environment": env}))

    runs: list[dict[str, Any]] = []
    if args.trace in (None, 0):
        for repeat in range(args.repeats):
            for name in names:
                runs.append(run_one(name, args.seed + repeat, seconds, 0))
    if args.trace in (None, 1):
        for name in names:
            runs.append(run_one(name, args.seed, seconds, 1))

    out = args.out or ROOT / ".bench_e2e" / (
        f"result-{args.workload or 'all'}-seed{args.seed}"
        f"-trace{'both' if args.trace is None else args.trace}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    for run in runs:
        spans = run.pop("spans")
        if spans is not None:
            dump = out.with_name(f"{out.stem}.spans-{run['workload']}.json")
            dump.write_text(json.dumps(spans))
            print(f"span dump: {dump}")
    out.write_text(
        json.dumps(
            {"schema": 1, "environment": env, "seed": args.seed, "seconds": seconds, "runs": runs},
            indent=1,
        )
    )
    print(f"result: {out}")

    if len(runs) == 1:
        run = runs[0]
        print(json.dumps({key: run[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if all(run["correct"] and not run["failed"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
