"""Benchmark regression harness for the aggregation hot paths.

Runs the micro kernels that dominate the round data path, writes a
``benchmarks/results/BENCH_<date>.json`` snapshot (best-of-N seconds and
ops/second per kernel) and compares against the most recent previous
snapshot with a configurable tolerance — failing loudly when a kernel got
slower.  This seeds the repo's performance trajectory: every PR that touches
the round engine should leave a snapshot behind.

Usage::

    PYTHONPATH=src python benchmarks/regression.py             # full run + compare
    PYTHONPATH=src python benchmarks/regression.py --smoke     # quick CI sanity run
    PYTHONPATH=src python benchmarks/regression.py --check     # compare vs committed
                                                               # baseline, write nothing
    PYTHONPATH=src python benchmarks/regression.py --tolerance 0.5 --no-fail

Timing protocol: every kernel is repeated ``--rounds`` times and the *minimum*
wall time is reported (robust to background load), so snapshots from the same
machine are comparable.
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.aggregation.bulyan import BulyanAggregator
from repro.aggregation.krum import MultiKrumAggregator
from repro.aggregation.majority import majority_vote_votetensor
from repro.aggregation.median import CoordinateWiseMedian
from repro.assignment.ramanujan import RamanujanAssignment
from repro.cluster.events import AsyncRuntime, EventDrivenRound, base_arrival_times
from repro.cluster.timing import CostModel
from repro.cluster.topology import GroupTopology, hierarchical_majority_vote
from repro.core.pipelines import ByzShieldPipeline
from repro.core.vote_tensor import VoteTensor
from repro.graphs.bipartite import BipartiteAssignment
from repro.nn.models import build_mlp
from repro.training.gradients import ModelGradientComputer
from repro.utils.digest import array_digest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


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
    pipeline = ByzShieldPipeline(assignment, validate=False)

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
    third is what observing that round costs: the trace's votes digest,
    streamed from the lazy tensor (the ``(f, r, d)`` cube it stands for
    would be 94 MB).
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

    return {
        "majority_vote_lazy_shared_payload_f25_r5_d94k": lambda: majority_vote_votetensor(
            tensor
        ),
        "coordinate_median_25x94k": lambda: median(honest),
        "votes_digest_lazy_f25_r5_d94k": lambda: array_digest(tensor),
    }


def event_round_kernels() -> dict:
    """Event-engine PS loop at the paper's K=25 scale (f=25, r=5, d≈11k).

    Both kernels build the round's COW vote tensor, then run the discrete-
    event collection over the unperturbed arrival schedule.  The inf-deadline
    kernel is the sync-equivalent mode (accept everything); the quorum kernel
    closes each file after 3 of its 5 copies and pays the rejection path
    (late events + slot zeroing) for the other two.
    """
    assignment = RamanujanAssignment(m=5, s=5).assignment
    dim = 11_274  # parameter count of the benchmarked K=25 MLP (d ~= 11k)
    honest = np.random.default_rng(5).standard_normal((assignment.num_files, dim))
    samples = np.full(assignment.num_files, 8.0)
    base = base_arrival_times(assignment, CostModel(), dim, samples)

    def event_round(runtime):
        tensor = VoteTensor.from_honest(assignment, honest)
        return EventDrivenRound(runtime).collect(tensor, base)

    return {
        "event_round_inf_deadline_f25_r5_d11k": lambda: event_round(AsyncRuntime()),
        "event_round_quorum3_f25_r5_d11k": lambda: event_round(
            AsyncRuntime(deadline=0.5, quorum=3)
        ),
    }


def hierarchical_vote_kernels() -> dict:
    """Flat vs hierarchical (and default vs 4096-wide blocks) exact vote at large r.

    The large-replication regime the two-level path targets: f=16 files, r=64
    copies each (a complete 64 x 16 assignment: every one of K=64 workers
    holds every file, so all files share one group signature), d=20k
    coordinates, with one colluding payload in 12 of the corrupted files'
    copies.  All four kernels produce bit-identical (winners, counts); the
    hierarchical kernels merge per-group (8 workers) histograms of the
    content-id matrix, and the block width sets the classing's temporaries.
    """
    f, r, dim = 16, 64, 20_000
    rng = np.random.default_rng(7)
    assignment = BipartiteAssignment(np.ones((r, f), dtype=np.int8), name="complete(64x16)")
    tensor = VoteTensor.from_honest(assignment, rng.standard_normal((f, dim)))
    corrupted = np.array([0, 5, 10])
    tensor.write_slots(
        np.repeat(corrupted, 12), np.tile(np.arange(12), corrupted.size), rng.standard_normal(dim)
    )
    topology = GroupTopology(r, 8)

    return {
        "blockwise_vote_flat_mono_f16_r64_d20k": lambda: majority_vote_votetensor(tensor),
        "blockwise_vote_flat_bs4k_f16_r64_d20k": lambda: majority_vote_votetensor(
            tensor, block_size=4096
        ),
        "hier_group_vote_mono_g8_f16_r64_d20k": lambda: hierarchical_majority_vote(
            tensor, topology
        ),
        "hier_group_vote_bs4k_g8_f16_r64_d20k": lambda: hierarchical_majority_vote(
            tensor, topology, block_size=4096
        ),
    }


#: gradient-engine sweep — (model key, file count) pairs benchmarked for both
#: engines.  The mlp point at f=25 (d≈11k, the paper's K=25 regime) carries
#: the ≥3x acceptance gate (see benchmarks/test_bench_micro.py).
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
    """Stacked vs looped per-file gradient kernels over the file-count sweep."""
    kernels = {}
    for model_key, num_files in GRADIENT_SWEEP:
        files = _gradient_files(num_files)
        for engine in ("stacked", "looped"):
            computer = ModelGradientComputer(_mlp(), engine=engine)
            params = computer.initial_params()
            kernels[f"gradient_engine_{engine}_{model_key}_f{num_files}"] = (
                lambda c=computer, p=params, fs=files: c.batched(p, fs)
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
    whose closed-form searches (Fang's λ ladder, min-max's γ bisection) must
    stay within :data:`ADAPTIVE_VS_CONSTANT_LIMIT` of the constant round — the
    gate :func:`adaptive_attack_gate` enforces on every non-smoke run.
    """
    from repro.attacks.base import AttackContext
    from repro.attacks.registry import create_attack

    assignment = RamanujanAssignment(m=5, s=5).assignment
    dim = 11_274  # match the replication kernels' MLP-sized gradients
    honest = np.random.default_rng(11).standard_normal((assignment.num_files, dim))
    byzantine = tuple(range(5))  # q=5 of K=25
    pipeline = ByzShieldPipeline(assignment, validate=False)

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


def adaptive_attack_gate(results: dict) -> list:
    """Adaptive rounds vs the constant baseline; return the violations."""
    baseline = results["adaptive_attack_constant_round_f25_r5_d11k"]["min_s"]
    violations = []
    for name, entry in results.items():
        if not name.startswith("adaptive_attack_") or "constant" in name:
            continue
        ratio = entry["min_s"] / baseline
        marker = ""
        if ratio > ADAPTIVE_VS_CONSTANT_LIMIT:
            marker = f"  <-- exceeds {ADAPTIVE_VS_CONSTANT_LIMIT:.2f}x limit"
            violations.append((name, ratio))
        print(f"adaptive round cost vs constant: {name:48s} {ratio:5.2f}x{marker}")
    return violations


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
    pipeline = ByzShieldPipeline(assignment, validate=False)
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
    }
    kernels.update(replication_round_kernels())
    kernels.update(headline_scale_kernels())
    kernels.update(event_round_kernels())
    kernels.update(hierarchical_vote_kernels())
    kernels.update(gradient_engine_kernels())
    kernels.update(adaptive_attack_kernels())
    return kernels


def time_kernel(fn, rounds: int) -> float:
    fn()  # warm up allocations and caches
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def previous_snapshot(current: pathlib.Path | None = None) -> pathlib.Path | None:
    snapshots = sorted(
        p for p in RESULTS_DIR.glob("BENCH_*.json") if p != current
    )
    return snapshots[-1] if snapshots else None


def fresh_snapshot_path(date: str) -> pathlib.Path:
    """BENCH_<date>.json, suffixed ``_rNN`` when same-day snapshots exist.

    The zero-padded suffix sorts after the unsuffixed name and in run order,
    so :func:`previous_snapshot` still picks the latest snapshot as the
    comparison baseline instead of overwriting it.
    """
    path = RESULTS_DIR / f"BENCH_{date}.json"
    run = 2
    while path.exists():
        path = RESULTS_DIR / f"BENCH_{date}_r{run:02d}.json"
        run += 1
    return path


def compare_to_baseline(results: dict, baseline_path: pathlib.Path, tolerance: float) -> list:
    """Print per-kernel deltas vs a snapshot; return the regressed kernels."""
    baseline = json.loads(baseline_path.read_text())["kernels"]
    print(f"comparing against {baseline_path.name} (tolerance {tolerance:.0%})")
    regressions = []
    for name, entry in results.items():
        if name not in baseline:
            continue
        before, after = baseline[name]["min_s"], entry["min_s"]
        change = after / before - 1.0
        marker = ""
        if change > tolerance:
            marker = "  <-- REGRESSION"
            regressions.append((name, change))
        print(f"{name:48s} {change:+7.1%}{marker}")
    return regressions


def report_speedups(results: dict) -> None:
    """Print the headline ratios of the snapshot."""
    cow = results["replication_cow_round_f25_r5_d11k"]["min_s"]
    cow32 = results["dtype_float32_cow_round_f25_r5_d11k"]["min_s"]
    print(f"\nfloat32 round speedup vs float64 (copy-on-write, f=25, r=5): {cow / cow32:.2f}x")
    flat = results["blockwise_vote_flat_mono_f16_r64_d20k"]["min_s"]
    hier = results["hier_group_vote_bs4k_g8_f16_r64_d20k"]["min_s"]
    print(f"hierarchical blockwise vote speedup vs flat monolithic (r=64): {flat / hier:.2f}x")
    for model_key, num_files in GRADIENT_SWEEP:
        stacked = results[f"gradient_engine_stacked_{model_key}_f{num_files}"]["min_s"]
        looped = results[f"gradient_engine_looped_{model_key}_f{num_files}"]["min_s"]
        print(
            f"stacked gradient engine speedup vs looped ({model_key}, f={num_files}): "
            f"{looped / stacked:.2f}x"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--rounds", type=int, default=30, help="timing repetitions per kernel"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.35,
        help="allowed fractional slowdown vs the previous snapshot",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick sanity run: few rounds, no snapshot written, no comparison",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baseline snapshot without writing "
        "a new one (the CI regression gate)",
    )
    parser.add_argument(
        "--no-fail",
        action="store_true",
        help="report regressions but exit 0 anyway",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=None, help="snapshot path override"
    )
    args = parser.parse_args(argv)

    rounds = 3 if args.smoke else args.rounds
    kernels = build_kernels()
    results = {}
    for name, fn in kernels.items():
        best = time_kernel(fn, rounds)
        results[name] = {"min_s": best, "ops_per_s": 1.0 / best}
        print(f"{name:48s} {best * 1e3:9.3f} ms   {1.0 / best:10.1f} ops/s")

    report_speedups(results)
    gate_violations = adaptive_attack_gate(results)

    if args.smoke:
        return 0

    if gate_violations and not args.no_fail:
        print(f"\n{len(gate_violations)} adaptive attack round(s) over the cost limit")
        return 1

    if args.check:
        baseline_path = previous_snapshot()
        if baseline_path is None:
            print("no committed snapshot to check against")
            return 0
        regressions = compare_to_baseline(results, baseline_path, args.tolerance)
        if regressions and not args.no_fail:
            print(f"\n{len(regressions)} kernel(s) regressed beyond tolerance")
            return 1
        return 0

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    date = datetime.date.today().isoformat()
    output = args.output or fresh_snapshot_path(date)
    baseline_path = previous_snapshot(output)
    output.write_text(
        json.dumps({"date": date, "rounds": rounds, "kernels": results}, indent=2)
        + "\n"
    )
    print(f"wrote {output}")

    if baseline_path is None:
        print("no previous snapshot; baseline established")
        return 0
    regressions = compare_to_baseline(results, baseline_path, args.tolerance)
    if regressions and not args.no_fail:
        print(f"\n{len(regressions)} kernel(s) regressed beyond tolerance")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
