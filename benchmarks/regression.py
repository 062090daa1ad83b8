"""Kernel timings of the round's hot paths, and the A/B of kernels and workloads against a git ref.

Times the micro kernels that dominate the round data path (each the minimum
of N ``time.perf_counter`` runs, robust to background load) and prints them
with the float32 round's speedup and the adaptive-attack cost gate.

Usage::

    PYTHONPATH=src python benchmarks/regression.py --smoke        # quick sanity run
    PYTHONPATH=src python benchmarks/regression.py --check HEAD^  # A/B vs the parent

``--check REF`` compares two trees on the same machine in the same minutes.
Side A is ``REF``'s ``src/``, extracted with ``git archive`` into a temporary
directory beside a copy of this tree's ``benchmarks/e2e/`` and
``BENCHMARK.json`` (nothing is left in ``.git``); side B is this tree,
uncommitted edits included.  Both sides run as child processes in
:data:`PAIRS` alternating pairs, one seed per pair, the same on both sides
and derived from ``REF``'s commit id.  In each pair, this file runs on each
side (``PYTHONPATH=<side>/src``) and reports every kernel's minimum of
:data:`ROUNDS` timings, then every workload of ``BENCHMARK.json`` runs on
each side through the benchmark's own command, ``benchmarks/e2e/run.py
--workload W --seed S --seconds SECONDS --trace 0``.

The verdicts are *improved*, *unchanged* or *regressed*:

* kernels and the time rows (``round_ms_p50``, ``rounds_per_s``,
  ``setup_s``) go through ``benchmarks/e2e/compare.py``'s ``classify``, at
  :data:`BOUND` for a kernel and at the metric's ``BENCHMARK.json`` bound
  for a row; it reads *unresolved* when the spread exceeds the bound and
  neither side beats the other on every run;
* the rows in :data:`EXACT_ROWS` repeat exactly per seed, so they are
  judged on the median of the per-seed changes against the same bound
  (:func:`paired`), never *unresolved*;
* ``spec_digest`` and ``final_params_digest`` must be equal at every seed;
  each seed where one differs is named;
* more failed ops on side B than on side A is a regressed row.

The adaptive-attack gate is applied to B's kernel medians.  Exit status: 1
on a regressed row, a differing digest or a gate violation, 2 when the
check cannot run (an unknown ref, a side that cannot import or run the
harness, a kernel on one side only, a workload run that leaves no result),
0 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc

import numpy as np

from repro.aggregation.bulyan import BulyanAggregator
from repro.aggregation.krum import MultiKrumAggregator
from repro.aggregation.majority import majority_vote_votetensor
from repro.aggregation.median import CoordinateWiseMedian
from repro.assignment.ramanujan import RamanujanAssignment
from repro.cluster.events import AsyncRuntime, EventDrivenRound, UplinkSchedule
from repro.cluster.timing import CostModel
from repro.core.pipelines import AggregationPipeline
from repro.core.vote_tensor import VoteTensor
from repro.data.datasets import split_slots
from repro.data.synthetic import make_gaussian_mixture
from repro.nn.models import build_mlp
from repro.training.gradients import ModelGradientComputer
from repro.utils.digest import array_digest

from e2e.compare import classify, collect, compare

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO = BENCH_DIR.parent

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())

#: timings per kernel in one run (each run reports their minimum)
ROUNDS = 30
#: alternating A/B pairs of ``--check``, each at its own seed
PAIRS = 10
#: measured seconds of each workload run of ``--check`` (``run.py --seconds``)
SECONDS = 1
#: end-to-end rows that repeat exactly per seed, judged by :func:`paired`
EXACT_ROWS = ("peak_alloc_mb", "final_accuracy")
#: fractional change (and spread) beyond which ``--check`` calls a kernel
#: improved or regressed (or unresolved): on a 2-core host two A/A runs
#: spread at most 3.2 % per kernel with medians within 2 %, and a planted
#: median defect slowed the kernels that reach the median by 11-71 %
BOUND = 0.10


def replication_round_kernels() -> dict:
    """One round's PS path through the copy-on-write round, float64 and float32.

    The hot-path sequence at the paper's K=25 scale (Ramanujan m=s=5: f=25,
    r=5, d = the K=25 MLP's ~11k parameters): pack the honest (f, d)
    gradients into a VoteTensor (shared base, no replica copied), write an
    adversary's payload into q=2 workers' slots, and aggregate through
    ByzShield.  The float32 variant exercises the dtype seam on the same path.
    """
    assignment = RamanujanAssignment(m=5, s=5).assignment
    dim = 11_274  # parameter count of the mlp benchmarked above (d ~= 11k)
    honest64 = np.random.default_rng(3).standard_normal((assignment.num_files, dim))
    honest32 = honest64.astype(np.float32)
    files, slots = np.nonzero(np.isin(assignment.worker_slot_matrix(), (0, 7)))  # q=2
    payload64 = np.random.default_rng(4).standard_normal(dim)
    payload32 = payload64.astype(np.float32)
    pipeline = AggregationPipeline(assignment)

    def cow_round(honest, payload):
        tensor = VoteTensor.from_honest(assignment, honest)
        tensor.write_slots(files, slots, payload)
        return pipeline.aggregate_tensor(tensor)

    return {
        "replication_cow_round_f25_r5_d11k": lambda: cow_round(honest64, payload64),
        "dtype_float32_cow_round_f25_r5_d11k": lambda: cow_round(honest32, payload32),
    }


def headline_scale_kernels() -> dict:
    """The two PS stages of the paper-headline round at its real width.

    ``sync-alie-wide`` in ``benchmarks/e2e`` (Ramanujan K=25, q=5 colluding
    adversaries, the 256x256 MLP's d=94,218 parameters) spends its round in
    the lazy vote over one shared payload and in the coordinate-wise median
    of the 25 winners; these kernels time exactly those two calls.  The
    third is what observing that round costs: the trace's votes digest
    (format v2: the vote's content ids, the 25 base rows and the one
    distinct payload, read from the lazy tensor — the ``(f, r, d)`` cube it
    stands for would be 94 MB).
    """
    assignment = RamanujanAssignment(m=5, s=5).assignment
    dim = 94_218
    rng = np.random.default_rng(9)
    honest = rng.standard_normal((assignment.num_files, dim))
    workers = assignment.worker_slot_matrix()
    files, slots = np.nonzero(np.isin(workers, (0, 6, 12, 18, 24)))
    tensor = VoteTensor.from_honest(assignment, honest)
    tensor.write_slots(files, slots, rng.standard_normal(dim))
    median = CoordinateWiseMedian()
    ids = majority_vote_votetensor(tensor).content_ids

    return {
        "majority_vote_lazy_shared_payload_f25_r5_d94k": lambda: majority_vote_votetensor(
            tensor
        ),
        "coordinate_median_25x94k": lambda: median(honest),
        "votes_digest_lazy_f25_r5_d94k": lambda: array_digest(tensor, ids),
    }


def event_round_kernels() -> dict:
    """Event-engine PS loop at the paper's K=25 scale (f=25, r=5, d≈11k).

    Both kernels build the round's COW vote tensor, then run the discrete-
    event collection over the unperturbed arrival schedule.  The inf-deadline
    kernel accepts everything; the quorum kernel
    closes each file after 3 of its 5 copies and pays the rejection path
    (late events) for the other two.
    """
    assignment = RamanujanAssignment(m=5, s=5).assignment
    dim = 11_274  # parameter count of the benchmarked K=25 MLP (d ~= 11k)
    honest = np.random.default_rng(5).standard_normal((assignment.num_files, dim))
    samples = np.full(assignment.num_files, 8.0)
    base = UplinkSchedule(assignment).arrival_times(
        CostModel(), dim, samples, np.zeros(assignment.num_workers)
    )

    def event_round(runtime):
        tensor = VoteTensor.from_honest(assignment, honest)
        return EventDrivenRound(runtime).collect(tensor, base)

    return {
        "event_round_inf_deadline_f25_r5_d11k": lambda: event_round(AsyncRuntime()),
        "event_round_quorum3_f25_r5_d11k": lambda: event_round(
            AsyncRuntime(deadline=0.5, quorum=3)
        ),
    }


#: gradient-engine sweep — (model key, file count) pairs benchmarked for the
#: stacked pass.  The mlp point at f=25 (d≈11k, the paper's K=25 regime)
#: also carries the ≥3x gate against the per-file reference loop (see
#: benchmarks/test_bench_micro.py).
GRADIENT_SWEEP = (("mlp", 4), ("mlp", 25))


def _mlp():
    return build_mlp(100, 10, hidden=(64, 64), seed=0)


def _gradient_files(num_files, batch=8):
    rng = np.random.default_rng(11)
    return [
        (rng.standard_normal((batch, 100)), rng.integers(0, 10, batch))
        for _ in range(num_files)
    ]


def gradient_engine_kernels() -> dict:
    """Stacked per-file gradient kernels over the file-count sweep."""
    kernels = {}
    for model_key, num_files in GRADIENT_SWEEP:
        files = _gradient_files(num_files)
        stacked = ModelGradientComputer(_mlp())
        kernels[f"gradient_engine_stacked_{model_key}_f{num_files}"] = (
            lambda c=stacked, p=stacked.initial_params(), fs=files: c.batched(p, fs)
        )
    # The compute-bound shape (``clean-compute-bound`` in benchmarks/e2e: 25
    # files of 256 samples), handed over already stacked as the trainer does;
    # its ratio to the GEMMs it is made of is gated in test_bench_micro.py.
    computer = ModelGradientComputer(_mlp())
    rng = np.random.default_rng(11)
    stacked_files = (rng.standard_normal((25, 256, 100)), rng.integers(0, 10, (25, 256)))
    kernels["gradient_engine_stacked_mlp_f25_n256"] = (
        lambda c=computer, p=computer.initial_params(), fs=stacked_files: c.batched(p, fs)
    )
    return kernels


def adaptive_attack_kernels() -> dict:
    """Attacked PS rounds at the paper's K=25 scale (f=25, r=5, d≈11k).

    Each kernel runs one full attacked round: lazy COW vote tensor from the
    honest gradients, Byzantine slot marking, the attack's vectorized
    ``apply_tensor`` write, then the ByzShield aggregate.  ``constant`` is
    the paper's fixed-payload baseline; the others are the adaptive zoo,
    whose closed-form searches (Fang's λ ladder against each of its three
    simulated defenses, min-max's γ bisection) must stay within
    :data:`ADAPTIVE_VS_CONSTANT_LIMIT` of the constant round — the gate
    :func:`adaptive_attack_gate` enforces on side B of every ``--check``.
    """
    from repro.attacks.base import AttackContext
    from repro.attacks.registry import create_attack

    assignment = RamanujanAssignment(m=5, s=5).assignment
    dim = 11_274  # match the replication kernels' MLP-sized gradients
    honest = np.random.default_rng(11).standard_normal((assignment.num_files, dim))
    byzantine = tuple(range(5))  # q=5 of K=25
    pipeline = AggregationPipeline(assignment)

    def attacked_round(attack):
        tensor = VoteTensor.from_honest(assignment, honest)
        tensor.mark_byzantine(byzantine)
        context = AttackContext(
            assignment=assignment,
            byzantine_workers=byzantine,
            honest_matrix=honest,
            iteration=0,
            rng=np.random.default_rng(13),
        )
        attack.apply_tensor(context, tensor)
        return pipeline.aggregate_tensor(tensor)

    zoo = {
        "constant": create_attack("constant"),
        "inner_product": create_attack("inner_product"),
        "sign_flip": create_attack("sign_flip"),
        "fang_median": create_attack("fang", defense="median"),
        "fang_trimmed_mean": create_attack("fang", defense="trimmed_mean"),
        "fang_krum": create_attack("fang", defense="krum"),
        "min_max_unit": create_attack("min_max", direction="unit"),
        "min_sum_std": create_attack("min_sum", direction="std"),
    }
    return {
        f"adaptive_attack_{key}_round_f25_r5_d11k": (
            lambda attack=attack: attacked_round(attack)
        )
        for key, attack in zoo.items()
    }


#: Largest allowed slowdown of any adaptive-attack round vs the constant
#: baseline round (same tensor build + aggregate, trivial payload).  It was
#: 1.5x while the constant round cost 7.8 ms.  Storing a colluding payload
#: once took that round to ~2.5 ms and every adaptive round down with it
#: (fang-median 11.1 -> 5.5 ms), but the searches' own cost did not move
#: (fang ~3 ms), so the same searches now read 2.1-2.3x, and up to 2.8x on a
#: noisy run of this sandbox.
ADAPTIVE_VS_CONSTANT_LIMIT = 3.0


def adaptive_attack_gate(times: dict) -> list:
    """Adaptive rounds vs the constant baseline; return the violations."""
    baseline = times["adaptive_attack_constant_round_f25_r5_d11k"]
    violations = []
    for name, seconds in times.items():
        if not name.startswith("adaptive_attack_") or "constant" in name:
            continue
        ratio = seconds / baseline
        marker = ""
        if ratio > ADAPTIVE_VS_CONSTANT_LIMIT:
            marker = f"  <-- exceeds {ADAPTIVE_VS_CONSTANT_LIMIT:.2f}x limit"
            violations.append((name, ratio))
        print(f"adaptive round cost vs constant: {name:52s} {ratio:5.2f}x{marker}")
    return violations


def dataset_build():
    """``clean-compute-bound``'s data section (benchmarks/e2e) built as
    ``ScenarioRunner`` builds it: the 20,000 / 1,000 split drawn first, then
    21,000 x 100 drawn straight into their train and test rows."""
    slots, _ = split_slots(21_000, test_fraction=1_000 / 21_000, seed=1)
    return make_gaussian_mixture(
        num_samples=21_000, num_classes=10, dim=100, separation=3.0, seed=0, slots=slots
    )


def build_kernels() -> dict:
    """Name -> zero-argument callable for every benchmarked kernel."""
    rng = np.random.default_rng(0)
    votes = rng.standard_normal((25, 20_000))
    median = CoordinateWiseMedian()
    krum = MultiKrumAggregator(num_byzantine=5)
    bulyan = BulyanAggregator(num_byzantine=5)

    # End-to-end pipeline aggregate at the paper's K=25 Ramanujan scale
    # (m=s=5: f=25 files, r=5 replicas).
    assignment = RamanujanAssignment(m=5, s=5).assignment
    pipeline = AggregationPipeline(assignment)
    pipeline_tensor = VoteTensor.from_honest(
        assignment, np.random.default_rng(1).standard_normal((assignment.num_files, 10_000))
    )

    kernels = {
        "byzshield_aggregate_tensor_f25_r5_d10k": lambda: pipeline.aggregate_tensor(
            pipeline_tensor
        ),
        "coordinate_median_25x20k": lambda: median(votes),
        "multi_krum_25x20k": lambda: krum(votes),
        "bulyan_25x20k": lambda: bulyan(votes),
        # the largest set-up stage of every e2e workload
        "gaussian_dataset_build_21k_d100": dataset_build,
    }
    kernels.update(replication_round_kernels())
    kernels.update(headline_scale_kernels())
    kernels.update(event_round_kernels())
    kernels.update(gradient_engine_kernels())
    kernels.update(adaptive_attack_kernels())
    return kernels


#: kernels whose ``tracemalloc`` peak above their start is printed beside
#: their time by a smoke run: the stacked pass at the compute-bound
#: shape holds one chunk of files' activations, not the whole batch's.
PEAK_KERNELS = ("gradient_engine_stacked_mlp_f25_n256", "gaussian_dataset_build_21k_d100")


def peak_mib(fn) -> float:
    """MiB ``fn()`` allocates above what was live when it started, at its peak."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - start) / float(1 << 20)
    finally:
        tracemalloc.stop()


def time_kernel(fn, rounds: int) -> float:
    fn()  # warm up allocations and caches
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def report_speedups(times: dict) -> None:
    """Print the float32 copy-on-write round's speedup over float64."""
    cow = times["replication_cow_round_f25_r5_d11k"]
    cow32 = times["dtype_float32_cow_round_f25_r5_d11k"]
    print(f"\nfloat32 round speedup vs float64 (copy-on-write, f=25, r=5): {cow / cow32:.2f}x")


class CheckError(Exception):
    """``--check`` cannot produce a verdict; the message names the side."""


def run_child(argv: list, root: pathlib.Path, env: "dict | None" = None):
    """One child process of ``--check``, run in ``root``; its output captured."""
    return subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)


def child_times(src: str) -> None:
    """One side's run of ``--check``: every kernel's best time, one JSON line."""
    import repro

    if not pathlib.Path(repro.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"repro was imported from {repro.__file__}, not from {src}")
    print(json.dumps({name: time_kernel(fn, ROUNDS) for name, fn in build_kernels().items()}))


def side_times(side: str, root: pathlib.Path) -> dict:
    """Run this file as a child on ``root/src``; ``{kernel: seconds}``."""
    src = str((root / "src").resolve())
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); "
        f"import regression; regression.child_times({src!r})"
    )
    child = run_child([sys.executable, "-c", code], root, {**os.environ, "PYTHONPATH": src})
    if child.returncode != 0:
        raise CheckError(f"side {side} cannot run the harness:\n{child.stderr.strip()}")
    return json.loads(child.stdout.splitlines()[-1])


def side_run(side: str, root: pathlib.Path, workload: str, seed: int, out: pathlib.Path) -> dict:
    """One untraced ``run.py`` child on ``root``: the run its result records.

    ``run.py`` exits 1 and still writes its result when an op or a check
    fails; that run is judged like any other.  Only a missing result stops
    the check."""
    script = BENCHMARK["command"][1:]
    child = run_child(
        [sys.executable, *script, "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0", "--out", str(out)],
        root,
    )
    if not out.is_file():
        raise CheckError(
            f"side {side} left no result for {workload} at seed {seed}:\n{child.stderr.strip()}"
        )
    result = json.loads(out.read_text())
    return {**result["runs"][0], "environment": result["environment"]}


def resolve(ref: str) -> str:
    """``ref``'s full commit id."""
    done = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
        cwd=REPO, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise CheckError(f"side A ({ref}): {done.stderr.strip()}")
    return done.stdout.strip()


def check_seeds(commit: str) -> list:
    """The seeds of one ``--check``, one per pair: fresh for each ref."""
    base = int(commit[:6], 16)
    return [base + pair for pair in range(PAIRS)]


def extract_side_a(commit: str, into: pathlib.Path) -> None:
    """Side A's tree: ``commit``'s ``src/`` (by ``git archive``) beside a copy
    of this tree's ``benchmarks/e2e/`` and ``BENCHMARK.json``.

    ``run.py`` puts the ``src/`` two levels above it first on ``sys.path``,
    so each side needs its own copy of the harness."""
    archive = subprocess.run(["git", "archive", commit, "src"], cwd=REPO, capture_output=True)
    if archive.returncode != 0:
        raise CheckError(f"side A ({commit}): {archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    shutil.copytree(
        BENCH_DIR / "e2e", into / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(REPO / "BENCHMARK.json", into)


def verdicts(times_a: dict, times_b: dict) -> tuple[list, int]:
    """Rows of ``classify`` over each kernel's runs, and the exit status.

    ``times_a`` and ``times_b`` map a kernel to its runs' seconds on side A
    (the ref) and side B (this tree).  The status is 1 when a row regressed.
    """
    missing = sorted(times_a.keys() ^ times_b.keys())
    if missing:
        side = "B" if missing[0] in times_a else "A"
        raise CheckError(f"side {side} has no kernel {missing[0]}")
    rows = [
        {"kernel": kernel, **classify(times_a[kernel], times_b[kernel], "lower", BOUND)}
        for kernel in times_a
    ]
    return rows, int(any(row["verdict"] == "regressed" for row in rows))


def paired(a: list, b: list, better: str, bound: float) -> dict:
    """Verdict for a row that repeats exactly per seed; ``a[i]`` and ``b[i]``
    ran at the same seed.

    The change is the median of the per-seed changes, so a spread across
    seeds wider than ``bound`` leaves nothing unresolved; ``spread`` is the
    range of the per-seed changes."""
    sign = 1.0 if better == "lower" else -1.0
    changes = [sign * (y - x) / (abs(x) or 1.0) for x, y in zip(a, b)]
    worse = statistics.median(changes)
    if worse > bound:
        verdict = "regressed"
    elif worse < -bound:
        verdict = "improved"
    else:
        verdict = "unchanged"
    return {
        "median_a": statistics.median(a), "median_b": statistics.median(b),
        "worse": worse, "spread": max(changes) - min(changes), "verdict": verdict,
        "changes": changes,
    }


def workload_verdicts(runs_a: list, runs_b: list) -> tuple[list, list, int]:
    """Rows per (workload, end-to-end metric), the differing digests, and the exit status.

    ``runs_a[i]`` and ``runs_b[i]`` are ``run.py``'s runs of one workload at
    one seed on side A and side B.  The rows are ``compare.py``'s (time rows
    by ``classify``, and more failed ops on B is a regressed row), with the
    rows in :data:`EXACT_ROWS` judged again by :func:`paired`.  The status is
    1 when a row regressed or a digest differs."""
    rows = compare({"runs": runs_a}, {"runs": runs_b}, BENCHMARK)
    side_a, side_b = collect({"runs": runs_a}), collect({"runs": runs_b})
    exact = {m["name"]: m for m in BENCHMARK["end_to_end"] if m["name"] in EXACT_ROWS}
    for row in rows:
        metric = exact.get(row["metric"])
        if metric is not None:
            a, b = (side[row["workload"]]["values"][metric["name"]] for side in (side_a, side_b))
            row.update(paired(a, b, metric["better"], metric["bound"]))
    differing = [
        f"{run_a['workload']} seed {run_a['seed']}: {key} A {digest_a} B {digest_b}"
        for run_a, run_b in zip(runs_a, runs_b)
        for key, digest_a, digest_b in (
            ("spec_digest", run_a["spec_digest"], run_b["spec_digest"]),
            ("final_params_digest", run_a["detail"]["final_params_digest"],
             run_b["detail"]["final_params_digest"]),
        )
        if digest_a != digest_b
    ]
    status = int(bool(differing) or any(row["verdict"] == "regressed" for row in rows))
    return rows, differing, status


def check(ref: str) -> int:
    """A/B of this tree against ``ref``, kernels and workloads; see the module docstring."""
    started = time.perf_counter()
    times = {"A": {}, "B": {}}
    runs = {"A": [], "B": []}
    try:
        commit = resolve(ref)
        seeds = check_seeds(commit)
        with tempfile.TemporaryDirectory() as tmp:
            side_a = pathlib.Path(tmp) / "A"
            extract_side_a(commit, side_a)
            sides = (("A", side_a), ("B", REPO))
            for seed in seeds:
                for side, root in sides:
                    for kernel, seconds in side_times(side, root).items():
                        times[side].setdefault(kernel, []).append(seconds)
                for workload in (w["name"] for w in BENCHMARK["workloads"]):
                    for side, root in sides:
                        out = pathlib.Path(tmp) / f"{side}-{workload}-{seed}.json"
                        runs[side].append(side_run(side, root, workload, seed, out))
        rows, kernel_status = verdicts(times["A"], times["B"])
        workload_rows, differing, workload_status = workload_verdicts(runs["A"], runs["B"])
    except CheckError as error:
        print(f"--check {ref} cannot run: {error}", file=sys.stderr)
        return 2
    host = runs["B"][0]["environment"]
    print(f"A = {ref} ({commit}), B = this tree ({host['git_commit']} and its uncommitted edits)")
    print(f"host: {json.dumps({k: v for k, v in host.items() if k != 'git_commit'})}")
    print(f"\nkernels: {PAIRS} pairs, min of {ROUNDS} timings, bound {BOUND:.0%}")
    print(f"{'kernel':52s} {'A ms':>9s} {'B ms':>9s} {'change':>8s} {'spread':>7s}  verdict")
    for row in rows:
        print(
            f"{row['kernel']:52s} {row['median_a'] * 1e3:9.3f} {row['median_b'] * 1e3:9.3f} "
            f"{row['worse']:+8.1%} {row['spread']:7.1%}  {row['verdict']}"
        )
    print(
        f"\nworkloads: run.py --seconds {SECONDS:g} --trace 0 at seeds {seeds[0]}-{seeds[-1]}; "
        f"{', '.join(EXACT_ROWS)} paired per seed"
    )
    print(
        f"{'workload':26s} {'metric':16s} {'A median':>12s} {'B median':>12s} "
        f"{'change':>8s} {'spread':>7s} {'bound':>6s}  verdict"
    )
    for row in workload_rows:
        print(
            f"{row['workload']:26s} {row['metric']:16s} {row['median_a']:12.5f} "
            f"{row['median_b']:12.5f} {row['worse']:+8.2%} {row['spread']:7.2%} "
            f"{row['bound']:6.0%}  {row['verdict']}"
        )
        if "changes" in row and row["verdict"] != "unchanged":
            print(f"{'':43s} per seed: {' '.join(f'{c:+.2%}' for c in row['changes'])}")
    for line in differing or [f"digests equal on all {len(seeds)} seeds of every workload"]:
        print(line)
    violations = adaptive_attack_gate({k: statistics.median(t) for k, t in times["B"].items()})
    regressed = sum(row["verdict"] == "regressed" for row in rows + workload_rows)
    if regressed:
        print(f"\n{regressed} row(s) regressed")
    if differing:
        print(f"\n{len(differing)} digest(s) differ")
    if violations:
        print(f"\n{len(violations)} adaptive attack round(s) over the cost limit")
    print(f"\nwall time {time.perf_counter() - started:.0f} s")
    return 1 if kernel_status or workload_status or violations else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--smoke", action="store_true", help="quick sanity run: 3 timings a kernel, no gate"
    )
    mode.add_argument(
        "--check", metavar="REF",
        help="A/B of this tree against REF: kernels and workloads (the CI gate)",
    )
    args = parser.parse_args(argv)
    if args.check is not None:
        return check(args.check)

    times = {}
    for name, fn in build_kernels().items():
        times[name] = best = time_kernel(fn, 3)
        peak = f"   peak {peak_mib(fn):7.2f} MiB" if name in PEAK_KERNELS else ""
        print(f"{name:52s} {best * 1e3:9.3f} ms   {1.0 / best:10.1f} ops/s{peak}")
    report_speedups(times)
    adaptive_attack_gate(times)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
