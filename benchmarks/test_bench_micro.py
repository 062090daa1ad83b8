"""Micro-benchmarks of the primitives that dominate the pipelines' runtime.

Unlike the table/figure benchmarks (which run once, pedantically), these use
pytest-benchmark's timing loop so regressions in the hot paths — robust
aggregation over stacked gradients, majority voting, the worst-case distortion
search and the assignment-graph construction — show up in the benchmark report.
"""

import os
import time

import numpy as np
import pytest

from repro.aggregation.bulyan import BulyanAggregator
from repro.aggregation.krum import MultiKrumAggregator
from repro.aggregation.majority import (
    _reference_exact_majority,
    majority_vote_tensor,
    majority_vote_votetensor,
)
from repro.aggregation.median import CoordinateWiseMedian
from repro.aggregation.trimmed_mean import TrimmedMeanAggregator
from repro.assignment.mols import MOLSAssignment
from repro.assignment.ramanujan import RamanujanAssignment
from repro.attacks.alie import ALIEAttack
from repro.attacks.base import AttackContext
from repro.core.distortion import max_distortion_exhaustive, max_distortion_local_search
from repro.core.vote_tensor import VoteTensor
from repro.nn.models import build_mlp
from repro.training.gradients import ModelGradientComputer

RNG = np.random.default_rng(0)
VOTES_25 = RNG.standard_normal((25, 20_000))
VOTES_SMALL = RNG.standard_normal((15, 5_000))
FILE_COPIES = np.stack([VOTES_SMALL[0], VOTES_SMALL[0], VOTES_SMALL[1]])[None]


def make_round_tensor(num_files=25, replication=5, dim=10_000, corrupted=(0, 10, 20)):
    """An (f, r, d) round at the paper's K=25 scale: honest replicas plus a
    colluding payload in 2 of the r copies of the corrupted files."""
    rng = np.random.default_rng(7)
    honest = rng.standard_normal((num_files, dim))
    values = np.repeat(honest[:, None, :], replication, axis=1)
    payload = rng.standard_normal(dim)
    for i in corrupted:
        values[i, :2] = payload
    return values


ROUND_TENSOR = make_round_tensor()


def reference_majority_all_files(values):
    """The pure-Python reference vote (the test oracle), file by file."""
    return [_reference_exact_majority(values[i]) for i in range(values.shape[0])]


@pytest.mark.benchmark(group="micro-aggregation")
def test_median_aggregation_speed(benchmark):
    result = benchmark(CoordinateWiseMedian(), VOTES_25)
    assert result.shape == (20_000,)


@pytest.mark.benchmark(group="micro-aggregation")
def test_multi_krum_aggregation_speed(benchmark):
    aggregator = MultiKrumAggregator(num_byzantine=5)
    result = benchmark(aggregator, VOTES_25)
    assert result.shape == (20_000,)


@pytest.mark.benchmark(group="micro-aggregation")
def test_bulyan_aggregation_speed(benchmark):
    aggregator = BulyanAggregator(num_byzantine=5)
    result = benchmark(aggregator, VOTES_25)
    assert result.shape == (20_000,)


@pytest.mark.benchmark(group="micro-aggregation")
def test_majority_vote_speed(benchmark):
    _, counts = benchmark(majority_vote_tensor, FILE_COPIES)
    assert counts[0] == 2


@pytest.mark.benchmark(group="micro-vote-tensor")
def test_majority_vote_tensor_exact_speed(benchmark):
    winners, counts = benchmark(majority_vote_tensor, ROUND_TENSOR)
    assert winners.shape == (25, 10_000)
    assert counts[0] == 3  # corrupted file: 3 honest copies beat 2 payloads


@pytest.mark.benchmark(group="micro-vote-tensor")
def test_majority_vote_tensor_tolerance_speed(benchmark):
    winners, _ = benchmark(majority_vote_tensor, ROUND_TENSOR, 0.5)
    assert winners.shape == (25, 10_000)


def test_vectorized_majority_speedup_at_paper_scale():
    """Acceptance gate: the vectorized kernel is >= 3x the per-file reference
    loop at (f=25, r=5, d=10k).  Interleaved min-of-N timing so background
    load hits both paths equally, with retries so a noisy runner only fails
    when the kernel has genuinely regressed."""
    winners, counts = majority_vote_tensor(ROUND_TENSOR)
    reference = reference_majority_all_files(ROUND_TENSOR)
    for i in range(25):
        assert np.array_equal(winners[i], reference[i][0])
        assert counts[i] == reference[i][1]

    def measure_speedup():
        tensor_times, legacy_times = [], []
        for _ in range(50):
            start = time.perf_counter()
            majority_vote_tensor(ROUND_TENSOR)
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
    time in a BENCH snapshot cannot hold this on another machine; a ratio of
    kernels that share the input can.  Interleaved min-of-N with retries,
    like the speed-up gates."""
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
    """Acceptance gate: the stacked per-file gradient engine is >= 3x the
    looped engine at (f=25, mlp, d~=11k) — the paper's K=25 regime with
    small equal-size batch slices.  Interleaved min-of-N timing with retries,
    mirroring the majority-vote gate above."""
    def make_model():
        return build_mlp(100, 10, hidden=(64, 64), seed=0)

    rng = np.random.default_rng(11)
    files = [(rng.standard_normal((8, 100)), rng.integers(0, 10, 8)) for _ in range(25)]
    looped = ModelGradientComputer(make_model(), engine="looped")
    stacked = ModelGradientComputer(make_model(), engine="stacked")
    params = looped.initial_params()

    loop_grads, loop_losses = looped.batched(params, files)
    stack_grads, stack_losses = stacked.batched(params, files)
    assert stacked.last_engine == "stacked"
    assert np.array_equal(loop_grads, stack_grads)
    assert np.array_equal(loop_losses, stack_losses)

    def measure_speedup():
        stacked_times, looped_times = [], []
        for _ in range(30):
            start = time.perf_counter()
            stacked.batched(params, files)
            stacked_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            looped.batched(params, files)
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


def test_stacked_pass_costs_at_most_1_4x_the_gemms_it_needs():
    """Machine-independent gate at the compute-bound shape (f=25 files of
    n=256 samples, the 100-64-64-10 MLP of ``clean-compute-bound``): the
    stacked per-file pass costs at most 1.4x the eight bare GEMMs a parameter
    gradient needs — 3 forward, 3 ``x.T @ g`` and the 2 inner ``g @ W.T`` —
    issued with the pass's own operand shapes.  It read ~1.6x while the first
    layer also computed an input gradient nobody reads, ReLU went through
    ``np.where``, the loss ran its softmax twice and the batch was stacked
    from 25 gathers; it reads 1.0-1.25x now.  Interleaved min-of-N with
    retries, like the Bulyan gate."""
    computer = ModelGradientComputer(build_mlp(100, 10, hidden=(64, 64), seed=0))
    params = computer.initial_params()
    rng = np.random.default_rng(11)
    files = (rng.standard_normal((25, 256, 100)), rng.integers(0, 10, (25, 256)))
    computer.batched(params, files)
    assert computer.last_engine == "stacked"

    x = files[0]
    w1, w2, w3 = (layer.params["W"] for layer in computer.model.layers if layer.params)
    g3 = rng.standard_normal((25, 256, 10))
    dw1, dw2, dw3 = (np.empty((25,) + w.shape) for w in (w1, w2, w3))

    def bare_gemms():
        h1 = x @ w1
        h2 = h1 @ w2
        h2 @ w3
        np.matmul(h2.transpose(0, 2, 1), g3, out=dw3)
        g2 = g3 @ w3.T
        np.matmul(h1.transpose(0, 2, 1), g2, out=dw2)
        g1 = g2 @ w2.T
        np.matmul(x.transpose(0, 2, 1), g1, out=dw1)

    def measure_ratio():
        pass_times, gemm_times = [], []
        for _ in range(20):
            start = time.perf_counter()
            computer.batched(params, files)
            pass_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            bare_gemms()
            gemm_times.append(time.perf_counter() - start)
        return min(pass_times) / min(gemm_times)

    ratios = []
    for _ in range(3):
        ratios.append(measure_ratio())
        if ratios[-1] <= 1.4:
            break
    assert min(ratios) <= 1.4, (
        f"the stacked pass costs {min(ratios):.2f}x its eight GEMMs "
        f"(attempts: {[f'{r:.2f}' for r in ratios]})"
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
    winners, counts = majority_vote_votetensor(tensor)
    winners = winners.densified()
    dense_winners, dense_counts = majority_vote_tensor(tensor.copy().values)
    assert np.array_equal(winners, dense_winners)
    assert np.array_equal(counts, dense_counts)

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
    """Acceptance gate: the copy-on-write round holds >= 2x less peak memory
    than the materialized round at (f=25, r=5, d=11k) while producing a
    bit-identical aggregate.  tracemalloc is deterministic, so no retries:
    the materialized path must allocate the full (f, r, d) cube while the
    COW path carries the (f, d) base plus only the attacked slots."""
    import tracemalloc

    from repro.core.pipelines import ByzShieldPipeline
    from repro.core.vote_tensor import VoteTensor

    assignment = RamanujanAssignment(m=5, s=5).assignment
    dim = 11_274
    rng = np.random.default_rng(0)
    honest = rng.standard_normal((assignment.num_files, dim))
    workers = assignment.worker_slot_matrix()
    replication = workers.shape[1]
    files, slots = np.nonzero(np.isin(workers, (0, 7)))  # q=2 byzantine
    payload = rng.standard_normal((files.size, dim))
    pipeline = ByzShieldPipeline(assignment, validate=False)

    def cow_round():
        tensor = VoteTensor.from_honest(assignment, honest)
        tensor.write_slots(files, slots, payload)
        return pipeline.aggregate_tensor(tensor).aggregate

    def materialized_round():
        tensor = VoteTensor(
            np.repeat(honest[:, None, :], replication, axis=1), workers
        )
        tensor.write_slots(files, slots, payload)
        return pipeline.aggregate_tensor(tensor).aggregate

    assert np.array_equal(cow_round(), materialized_round())

    def peak_bytes(fn):
        fn()  # warm any lazy caches so only steady-state allocations count
        tracemalloc.start()
        fn()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    cow_peak = peak_bytes(cow_round)
    materialized_peak = peak_bytes(materialized_round)
    ratio = materialized_peak / cow_peak
    assert ratio >= 2.0, (
        f"copy-on-write round only {ratio:.2f}x smaller peak "
        f"({cow_peak / 1e6:.2f} MB vs {materialized_peak / 1e6:.2f} MB)"
    )


def test_blockwise_vote_memory_reduction_at_large_r():
    """Acceptance gate: the coordinate-blockwise majority kernel holds < 0.25x
    the monolithic kernel's peak memory at (f=25, r=64, d=200k) — the
    beyond-RAM regime the hierarchical/blockwise path targets — while staying
    bit-identical.  The monolithic labeler materializes O(f.r.d) comparison
    temporaries; the blockwise sweep streams O(f.r.block) instead.
    tracemalloc is deterministic, so no retries."""
    import tracemalloc

    f, r, dim = 25, 64, 200_000
    rng = np.random.default_rng(7)
    honest = rng.standard_normal((f, dim))
    values = np.repeat(honest[:, None, :], r, axis=1)
    payload = rng.standard_normal(dim)
    for i in (0, 10, 20):
        values[i, :20] = payload  # minority payload: honest copies still win

    mono_w, mono_c = majority_vote_tensor(values)
    blk_w, blk_c = majority_vote_tensor(values, block_size=4096)
    assert np.array_equal(blk_w, mono_w)
    assert np.array_equal(blk_c, mono_c)
    assert mono_c[0] == r - 20

    def peak_bytes(fn):
        fn()  # warm lazy caches (hash weights) so steady-state peaks compare
        tracemalloc.start()
        fn()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    mono_peak = peak_bytes(lambda: majority_vote_tensor(values))
    blk_peak = peak_bytes(lambda: majority_vote_tensor(values, block_size=4096))
    ratio = blk_peak / mono_peak
    assert ratio < 0.25, (
        f"blockwise vote peak is {ratio:.2f}x the monolithic peak "
        f"({blk_peak / 1e6:.1f} MB vs {mono_peak / 1e6:.1f} MB)"
    )


@pytest.mark.benchmark(group="micro-gradient-engine")
def test_stacked_gradient_engine_mlp_f25_speed(benchmark):
    computer = ModelGradientComputer(build_mlp(100, 10, hidden=(64, 64), seed=0))
    params = computer.initial_params()
    rng = np.random.default_rng(11)
    files = [(rng.standard_normal((8, 100)), rng.integers(0, 10, 8)) for _ in range(25)]
    grads, losses = benchmark(computer.batched, params, files)
    assert computer.last_engine == "stacked"
    assert grads.shape == (25, computer.dim)
    assert losses.shape == (25,)


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
    assignment = MOLSAssignment(load=5, replication=3).assignment
    result = benchmark(max_distortion_exhaustive, assignment, 5)
    assert result.c_max == 8


@pytest.mark.benchmark(group="micro-distortion")
def test_local_search_distortion_speed(benchmark):
    assignment = MOLSAssignment(load=7, replication=5).assignment
    result = benchmark.pedantic(
        max_distortion_local_search, args=(assignment, 10), kwargs={"seed": 0}, rounds=3, iterations=1
    )
    assert result.c_max >= 10
