"""Micro-benchmarks of the primitives that dominate the pipelines' runtime.

Unlike the table/figure benchmarks (which run once, pedantically), these use
pytest-benchmark's timing loop so regressions in the hot paths — majority
voting, the worst-case distortion search and the assignment-graph
construction — show up in the benchmark report.
"""

import os
import time

import numpy as np
import pytest

from repro.aggregation.bulyan import BulyanAggregator
from repro.aggregation.krum import MultiKrumAggregator
from repro.aggregation.majority import majority_vote_votetensor
from repro.aggregation.trimmed_mean import TrimmedMeanAggregator
from repro.assignment.frc import FRCAssignment
from repro.assignment.mols import MOLSAssignment
from repro.assignment.ramanujan import RamanujanAssignment
from repro.attacks.alie import ALIEAttack
from repro.attacks.base import AttackContext
from repro.core.distortion import claim2_exact_c_max, max_distortion
from repro.core.vote_tensor import VoteTensor
from repro.graphs.bipartite import BipartiteAssignment
from repro.nn.models import build_mlp
from repro.training.gradients import ModelGradientComputer

from reference_vote import reference_majority
from regression import BOUND, CheckError, looped_gradients, main, verdicts

RNG = np.random.default_rng(0)
VOTES_25 = RNG.standard_normal((25, 20_000))
VOTES_SMALL = RNG.standard_normal((15, 5_000))


def one_file_copies():
    """One file's three copies, two of them equal: FRC with a single group."""
    tensor = VoteTensor.from_honest(
        FRCAssignment(num_workers=3, replication=3).assignment, VOTES_SMALL[:1]
    )
    tensor.write_slots([0], [2], VOTES_SMALL[1])
    return tensor


def make_round_tensor(dim=10_000, corrupted=(0, 10, 20)):
    """A copy-on-write round at the paper's K=25 scale (Ramanujan m=s=5:
    f=25, r=5): honest replicas plus one colluding payload in 2 of the r
    copies of the corrupted files."""
    assignment = RamanujanAssignment(m=5, s=5).assignment
    rng = np.random.default_rng(7)
    tensor = VoteTensor.from_honest(
        assignment, rng.standard_normal((assignment.num_files, dim))
    )
    corrupted = np.asarray(corrupted)
    tensor.write_slots(np.repeat(corrupted, 2), np.tile([0, 1], corrupted.size), rng.standard_normal(dim))
    return tensor


FILE_COPIES = one_file_copies()
ROUND_TENSOR = make_round_tensor()


def copies_of(tensor, file):
    """The ``(r, d)`` copies of one file, read through the slot API."""
    slots = np.arange(tensor.replication)
    return tensor.read_slots(np.full_like(slots, file), slots)


def reference_majority_all_files(tensor):
    """The pure-Python reference vote (the test oracle), file by file."""
    return [reference_majority(copies_of(tensor, i)) for i in range(tensor.num_files)]


@pytest.mark.benchmark(group="micro-aggregation")
def test_majority_vote_speed(benchmark):
    _, counts, _, _ = benchmark(majority_vote_votetensor, FILE_COPIES)
    assert counts[0] == 2


@pytest.mark.benchmark(group="micro-vote-tensor")
def test_majority_vote_votetensor_round_speed(benchmark):
    winners, counts, _, _ = benchmark(majority_vote_votetensor, ROUND_TENSOR)
    assert winners.shape == (25, 10_000)
    assert counts[0] == 3  # corrupted file: 3 honest copies beat 2 payloads


def test_vectorized_majority_speedup_at_paper_scale():
    """Acceptance gate: the vote is >= 3x the per-file reference loop over
    the copies at (f=25, r=5, d=10k).  Interleaved min-of-N timing so
    background load hits both paths equally, with retries so a noisy runner
    only fails when the kernel has genuinely regressed."""
    winners, counts, _, _ = majority_vote_votetensor(ROUND_TENSOR)
    winners = winners.densified()
    reference = reference_majority_all_files(ROUND_TENSOR)
    for i in range(25):
        assert np.array_equal(winners[i], reference[i][0])
        assert counts[i] == reference[i][1]

    def measure_speedup():
        tensor_times, legacy_times = [], []
        for _ in range(50):
            start = time.perf_counter()
            majority_vote_votetensor(ROUND_TENSOR)
            tensor_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            reference_majority_all_files(ROUND_TENSOR)
            legacy_times.append(time.perf_counter() - start)
        return min(legacy_times) / min(tensor_times)

    speedups = []
    for _ in range(3):
        speedups.append(measure_speedup())
        if speedups[-1] >= 3.0:
            break
    assert max(speedups) >= 3.0, (
        f"vectorized majority vote only {max(speedups):.2f}x faster "
        f"(attempts: {[f'{s:.2f}' for s in speedups]})"
    )


def test_bulyan_costs_at_most_three_times_its_two_stages_at_paper_scale():
    """Machine-independent gate: Bulyan(q=5) on the 25 x 20k matrix costs at
    most 3x (Multi-Krum + trimmed mean) on the same matrix — one distance
    matrix plus one coordinate-wise trim is what it is made of.  It was ~5x
    while every one of its theta selection steps re-measured the distances
    and the trim sorted down the strided axis; it is ~1.5x now.  An absolute
    time cannot hold this on another machine; a ratio of kernels that share
    the input can.  Interleaved min-of-N with retries, like the speed-up
    gates."""
    bulyan = BulyanAggregator(num_byzantine=5)
    multi_krum = MultiKrumAggregator(num_byzantine=5)
    trimmed = TrimmedMeanAggregator(trim=5)

    def measure_ratio():
        bulyan_times, parts_times = [], []
        for _ in range(20):
            start = time.perf_counter()
            bulyan(VOTES_25)
            bulyan_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            multi_krum(VOTES_25)
            trimmed(VOTES_25)
            parts_times.append(time.perf_counter() - start)
        return min(bulyan_times) / min(parts_times)

    ratios = []
    for _ in range(3):
        ratios.append(measure_ratio())
        if ratios[-1] <= 3.0:
            break
    assert min(ratios) <= 3.0, (
        f"Bulyan costs {min(ratios):.2f}x Multi-Krum + trimmed mean "
        f"(attempts: {[f'{r:.2f}' for r in ratios]})"
    )


def test_stacked_gradient_engine_speedup_at_paper_scale():
    """Acceptance gate: the stacked per-file gradient pass is >= 3x the
    per-file loop it replaces (``regression.looped_gradients``: one parameter
    load, then each file's plain forward/backward into its row) at (f=25,
    mlp, d~=11k) — the paper's K=25 regime with small equal-size batch
    slices.  Interleaved min-of-N timing with retries, mirroring the
    majority-vote gate above."""
    def make_model():
        return build_mlp(100, 10, hidden=(64, 64), seed=0)

    rng = np.random.default_rng(11)
    files = [(rng.standard_normal((8, 100)), rng.integers(0, 10, 8)) for _ in range(25)]
    looped = ModelGradientComputer(make_model())
    stacked = ModelGradientComputer(make_model())
    params = looped.initial_params()
    out = np.empty((25, looped.dim), dtype=looped.model.dtype)

    loop_grads, loop_losses = looped_gradients(looped, params, files, out)
    stack_grads, stack_losses = stacked.batched(params, files)
    assert np.array_equal(loop_grads, stack_grads)
    assert np.array_equal(loop_losses, stack_losses)

    def measure_speedup():
        stacked_times, looped_times = [], []
        for _ in range(30):
            start = time.perf_counter()
            stacked.batched(params, files)
            stacked_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            looped_gradients(looped, params, files, out)
            looped_times.append(time.perf_counter() - start)
        return min(looped_times) / min(stacked_times)

    speedups = []
    for _ in range(3):
        speedups.append(measure_speedup())
        if speedups[-1] >= 3.0:
            break
    assert max(speedups) >= 3.0, (
        f"stacked gradient engine only {max(speedups):.2f}x faster "
        f"(attempts: {[f'{s:.2f}' for s in speedups]})"
    )


def test_colluding_vote_costs_less_than_a_copy_of_the_base():
    """Machine-independent gate: the exact vote of a lazy 25 x 5 x 94k round
    whose 25 Byzantine slots share one payload (the paper's headline ALIE
    round) costs at most 0.6x ``base.copy()`` of its own honest matrix.  The
    vote copies nothing but the rows that out-voted the base; the rest is
    one coordinate block of row comparison (the payload differs from every
    base row at once) and one row hashed.  It read 2.2-2.8x in this loop
    while the comparison gathered all 25 base rows at full width, 1.5x while
    the vote returned a patched copy of the base (2.1 ms over 1.4 ms), and
    reads 0.40-0.46x now (0.6 ms over 1.45 ms; the gate is that + 25%).
    Interleaved min-of-15 with retries, like the Bulyan gate.  The
    ALIE payload on the same matrix is printed beside it (``-s``), ungated:
    warm, its gain over ``mean`` + ``std`` is ~35%, too close to the spread
    for a ratio gate."""
    assignment = RamanujanAssignment(5, 5).assignment
    rng = np.random.default_rng(7)
    base = rng.standard_normal((assignment.num_files, 94_218))
    byzantine = tuple(range(5))
    tensor = VoteTensor.from_honest(assignment, base)
    tensor.mark_byzantine(byzantine)
    context = AttackContext(
        assignment=assignment, byzantine_workers=byzantine, honest_matrix=base
    )
    attack = ALIEAttack()
    attack.apply_tensor(context, tensor)
    assert int(tensor.byzantine_mask.sum()) == 25 and tensor.num_override_rows == 1
    winners, counts, _, _ = majority_vote_votetensor(tensor)
    winners = winners.densified()
    for i, (winner, count) in enumerate(reference_majority_all_files(tensor)):
        assert np.array_equal(winners[i], winner) and counts[i] == count

    def timed(fn):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    def measure():
        vote_times, copy_times, payload_times, mean_times = [], [], [], []
        for _ in range(15):
            vote_times.append(timed(lambda: majority_vote_votetensor(tensor)))
            copy_times.append(timed(base.copy))
            payload_times.append(timed(lambda: attack.payload(context)))
            mean_times.append(timed(lambda: base.mean(axis=0)))
        return min(vote_times), min(copy_times), min(payload_times), min(mean_times)

    attempts = []
    for _ in range(3):
        attempts.append(measure())
        if attempts[-1][0] <= 0.6 * attempts[-1][1]:
            break
    vote, copy, payload, mean = min(attempts, key=lambda t: t[0] / t[1])
    print(
        f"\nmajority_vote_votetensor {vote * 1e3:.2f} ms, base.copy() "
        f"{copy * 1e3:.2f} ms, ratio {vote / copy:.2f} (gate 0.6)\n"
        f"ALIEAttack.payload {payload * 1e3:.2f} ms, base.mean(axis=0) "
        f"{mean * 1e3:.2f} ms, ratio {payload / mean:.2f} (not gated)"
    )
    assert vote <= 0.6 * copy, (
        f"colluding vote costs {vote / copy:.2f}x base.copy() (attempts: "
        f"{[f'{a[0] / a[1]:.2f}' for a in attempts]})"
    )


def test_cow_replication_memory_reduction_at_paper_scale():
    """Acceptance gate: the copy-on-write round peaks at <= 1/2 of the
    (f, r, d) cube it stands for at (f=25, r=5, d=11k), and its aggregate is
    the median of the per-file reference votes.  tracemalloc is
    deterministic, so no retries: the round carries the (f, d) base plus
    only the attacked slots."""
    import tracemalloc

    from repro.core.pipelines import AggregationPipeline

    assignment = RamanujanAssignment(m=5, s=5).assignment
    dim = 11_274
    rng = np.random.default_rng(0)
    honest = rng.standard_normal((assignment.num_files, dim))
    files, slots = np.nonzero(np.isin(assignment.worker_slot_matrix(), (0, 7)))  # q=2
    payload = rng.standard_normal((files.size, dim))
    pipeline = AggregationPipeline(assignment)

    def attacked():
        tensor = VoteTensor.from_honest(assignment, honest)
        tensor.write_slots(files, slots, payload)
        return tensor

    def cow_round():
        return pipeline.aggregate_tensor(attacked()).aggregate

    reference = np.vstack([w for w, _ in reference_majority_all_files(attacked())])
    assert np.array_equal(cow_round(), np.median(reference, axis=0))

    def peak_bytes(fn):
        fn()  # warm any lazy caches so only steady-state allocations count
        tracemalloc.start()
        fn()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    cow_peak = peak_bytes(cow_round)
    cube_bytes = attacked().nbytes
    ratio = cube_bytes / cow_peak
    assert ratio >= 2.0, (
        f"copy-on-write round only {ratio:.2f}x smaller than its cube "
        f"({cow_peak / 1e6:.2f} MB vs {cube_bytes / 1e6:.2f} MB)"
    )


def test_vote_memory_is_independent_of_r_at_large_r():
    """Acceptance gate: at (f=25, r=64, d=200k) — a 2.6 GB cube, the
    large-replication regime — the exact vote, with the default block
    width or 4096, peaks under 0.05x the (f, d) honest base: classing costs
    O(distinct payload rows x block), whatever r is, and both widths give
    the same bits.  tracemalloc is deterministic, so no retries."""
    import tracemalloc

    f, r, dim = 25, 64, 200_000
    rng = np.random.default_rng(7)
    assignment = BipartiteAssignment(np.ones((r, f), dtype=np.int8), name="complete(64x25)")
    tensor = VoteTensor.from_honest(assignment, rng.standard_normal((f, dim)))
    corrupted = np.array([0, 10, 20])  # minority payload: honest copies still win
    tensor.write_slots(
        np.repeat(corrupted, 20), np.tile(np.arange(20), corrupted.size), rng.standard_normal(dim)
    )

    mono_w, mono_c, _, _ = majority_vote_votetensor(tensor)
    blk_w, blk_c, _, _ = majority_vote_votetensor(tensor, block_size=4096)
    assert np.array_equal(blk_w.densified(), mono_w.densified())
    assert np.array_equal(blk_c, mono_c)
    assert mono_c[0] == r - 20

    def peak_bytes(fn):
        fn()  # warm lazy caches (hash weights) so steady-state peaks compare
        tracemalloc.start()
        fn()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    base_bytes = tensor.base_rows().nbytes
    for block_size in (None, 4096):
        peak = peak_bytes(lambda: majority_vote_votetensor(tensor, block_size=block_size))
        assert peak < 0.05 * base_bytes, (
            f"vote (block_size={block_size}) peaks at {peak / 1e6:.1f} MB, "
            f"{peak / base_bytes:.2f}x the {base_bytes / 1e6:.1f} MB base"
        )


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _scaled_catalog_specs():
    """The 24-scenario catalog with a longer training schedule, so each
    scenario's compute dominates process-pool startup and IPC."""
    from repro.scenarios.catalog import all_scenarios
    from repro.scenarios.spec import ScenarioSpec

    specs = []
    for spec in all_scenarios():
        data = spec.to_dict()
        data["training"] = {**data["training"], "num_iterations": 40, "eval_every": 20}
        specs.append(ScenarioSpec.from_dict(data))
    return specs


def test_campaign_parallel_traces_match_golden():
    """Acceptance gate (identity half): a 4-process campaign run of the raw
    24-scenario catalog produces RunTraces bit-identical to the committed
    goldens — parallelism changes wall-clock time and nothing else."""
    from repro.campaigns.executor import run_specs
    from repro.scenarios.catalog import all_scenarios, scenario_names
    from repro.scenarios.golden import golden_path
    from repro.scenarios.trace import RunTrace

    records = run_specs(all_scenarios(), processes=4)
    for name, record in zip(scenario_names(), records):
        golden = RunTrace.from_json_file(golden_path(name))
        RunTrace.from_dict(record.trace).assert_matches(golden)


def test_campaign_parallel_speedup_on_catalog():
    """Acceptance gate (speed half): running the 24-scenario catalog through
    the campaign executor at 4 processes is >= 2x faster than serial.  The
    catalog's training schedule is lengthened so per-scenario compute
    dominates pool startup (the goldens' 4-iteration runs are deliberately
    tiny); best-of-N timing with retries, mirroring the kernel gates above.
    Needs real parallel hardware, so it skips on boxes with < 4 cores."""
    cores = _usable_cores()
    if cores < 4:
        pytest.skip(f"needs >= 4 usable cores for a 4-process speedup, have {cores}")
    from repro.campaigns.executor import run_specs

    specs = _scaled_catalog_specs()
    serial_records = run_specs(specs, processes=0)
    parallel_records = run_specs(specs, processes=4)
    assert [r.trace for r in parallel_records] == [r.trace for r in serial_records]

    def measure_speedup():
        start = time.perf_counter()
        run_specs(specs, processes=0)
        serial = time.perf_counter() - start
        start = time.perf_counter()
        run_specs(specs, processes=4)
        parallel = time.perf_counter() - start
        return serial / parallel

    speedups = []
    for _ in range(3):
        speedups.append(measure_speedup())
        if speedups[-1] >= 2.0:
            break
    assert max(speedups) >= 2.0, (
        f"4-process campaign run only {max(speedups):.2f}x faster than serial "
        f"(attempts: {[f'{s:.2f}' for s in speedups]})"
    )


@pytest.mark.benchmark(group="micro-assignment")
def test_mols_assignment_construction_speed(benchmark):
    assignment = benchmark(lambda: MOLSAssignment(load=7, replication=5).build())
    assert assignment.num_workers == 35


@pytest.mark.benchmark(group="micro-assignment")
def test_ramanujan_assignment_construction_speed(benchmark):
    assignment = benchmark(lambda: RamanujanAssignment(m=5, s=5).build())
    assert assignment.num_workers == 25


@pytest.mark.benchmark(group="micro-distortion")
def test_exhaustive_distortion_search_speed(benchmark):
    """The search ``sync-alie-wide`` pays at set-up: Ramanujan K = 25, q = 5,
    C(25, 5) = 53,130 sets."""
    assignment = RamanujanAssignment(m=5, s=5).assignment
    result = benchmark(max_distortion, assignment, 5)
    assert result.c_max == claim2_exact_c_max(5, 5) == 2


@pytest.mark.benchmark(group="micro-distortion")
def test_exhaustive_distortion_search_speed_k35(benchmark):
    """Table 5's MOLS K = 35 at q = 6: C(35, 6) = 1,623,160 sets."""
    assignment = MOLSAssignment(load=7, replication=5).assignment
    result = benchmark.pedantic(
        max_distortion, args=(assignment, 6), rounds=5, iterations=1
    )
    assert result.c_max == 4


def test_kernel_verdicts_from_synthetic_runs():
    """The A/B check's verdict table on made-up runs, no subprocess: a kernel
    30 % slower regresses, equal runs are unchanged, a spread wider than
    ``BOUND`` is unresolved unless every run of one side beats every run of
    the other, and only a regressed row makes the exit status 1."""
    steady = [1.0 + 0.001 * i for i in range(10)]
    noisy = [1.0 + 0.05 * i for i in range(10)]  # interquartile range ~22 %
    assert BOUND < 0.2
    times_a = {"slower": steady, "equal": steady, "noisy": noisy, "noisy_apart": noisy}
    times_b = {
        "slower": [1.3 * t for t in steady],
        "equal": steady,
        "noisy": [1.05 * t for t in reversed(noisy)],
        "noisy_apart": [t - 0.5 for t in noisy],  # every run beats all of A's
    }
    rows, status = verdicts(times_a, times_b)
    assert {row["kernel"]: row["verdict"] for row in rows} == {
        "slower": "regressed",
        "equal": "unchanged",
        "noisy": "unresolved",
        "noisy_apart": "improved",
    }
    assert status == 1
    del times_a["slower"], times_b["slower"]
    assert verdicts(times_a, times_b)[1] == 0
    del times_b["noisy"]
    with pytest.raises(CheckError, match="^side B has no kernel noisy$"):
        verdicts(times_a, times_b)


def test_check_against_an_unknown_ref_cannot_pass(capsys):
    """``--check`` exits 2, naming side A and git's error, when its ref does
    not resolve (a typo, or ``HEAD^`` in a clone of depth 1)."""
    assert main(["--check", "no-such-ref"]) == 2
    assert "side A (no-such-ref): fatal:" in capsys.readouterr().err
