"""A steady-state round allocates no full-width array, and recycling is unobservable.

After round 0 the paper-headline round (ByzShield + median under a static
ALIE adversary) builds nothing of size ``f * d``, with or without the
scenario trace observing it: the vote hands its winners on as the honest
matrix plus the few rows that out-voted it, the trace digests them from the
vote's references, the median, the vote's row comparison and ALIE's
statistics stream coordinate blocks, the layers write their per-file
gradients in place (one chunk of files' samples and activations alive at a
time), and
:meth:`ModelGradientComputer.batched` hands the previous round's gradient
matrix out again — but only when nothing else still references it, which is
what the second half of this file pins from every side a caller can hold on.
"""

import tracemalloc

import numpy as np
import pytest

import repro.aggregation.majority as majority_module
import repro.aggregation.median as median_module
import repro.core.pipelines as pipelines_module
import repro.nn.models as models
from repro.attacks.alie import ALIEAttack
from repro.cluster.faults import FaultContext, MessageCorruptionInjector
from repro.core.vote_tensor import VoteTensor
from repro.data.batching import RoundFiles
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.models import build_mlp
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.trace import RunTrace
from repro.training.gradients import ModelGradientComputer
from repro.training.trainer import DistributedTrainer
from repro.utils.arrays import LANE_BLOCK

from cow_helpers import cube_of, stored_rows


def headline_spec(hidden=(128, 48), num_iterations=4, q=5):
    """``sync-alie-wide`` of ``benchmarks/e2e`` at d = 19,610: Ramanujan
    K = 25 (f = 25, r = 5), ByzShield + median, omniscient static ALIE q = 5,
    an MLP on Gaussian data."""
    return ScenarioSpec.from_dict({
        "name": "round-memory",
        "description": "the paper-headline round, narrower",
        "cluster": {"scheme": "ramanujan", "params": {"m": 5, "s": 5}},
        "pipeline": {"kind": "byzshield", "aggregator": "median"},
        "data": {
            "kind": "gaussian",
            "dim": 100,
            "num_classes": 10,
            "num_train": 1000,
            "num_test": 200,
        },
        "model": {"hidden": list(hidden)},
        "training": {
            "batch_size": 200,
            "num_iterations": num_iterations,
            "eval_every": num_iterations,
            "learning_rate": 0.1,
            "momentum": 0.0,
        },
        "attack": {
            "name": "alie",
            "selection": "omniscient",
            "schedule": {"kind": "static", "q": q},
        },
    })


def traced_round_peak(spec, monkeypatch, iteration=2):
    """Traced peak of one round of ``ScenarioRunner.run`` above what it held
    before it: from the trainer's ``step`` to the ``trace.append`` of its
    digests.  Returns the peak and the trainer the loop drove."""
    measured = {}
    step, append = DistributedTrainer.step, RunTrace.append

    def measured_step(trainer, at):
        if at == iteration:
            measured["trainer"] = trainer
            tracemalloc.start()
            measured["start"] = tracemalloc.get_traced_memory()[0]
        return step(trainer, at)

    def measured_append(trace, round_trace):
        if round_trace.iteration == iteration:
            measured["peak"] = tracemalloc.get_traced_memory()[1] - measured["start"]
            tracemalloc.stop()
        append(trace, round_trace)

    monkeypatch.setattr(DistributedTrainer, "step", measured_step)
    monkeypatch.setattr(RunTrace, "append", measured_append)
    try:
        ScenarioRunner(spec).run()
    finally:
        if tracemalloc.is_tracing():
            tracemalloc.stop()
    return measured["peak"], measured["trainer"]


def steady_round_peak(trainer):
    """Traced peak of the trainer's third round above what it held before it."""
    trainer.run_iteration(0)
    trainer.run_iteration(1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        trainer.run_iteration(2)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("observed", [False, True], ids=["flat", "observed-flat"])
def test_steady_state_round_peaks_under_one_gradient_matrix(monkeypatch, observed):
    """Per-vector budget, in ``(d,)`` rows of float64 (d = 19,610) above the
    round's start, at each stage's peak: the gradient pass, 4.45 rows (one
    chunk's samples and activations: all 25 files of 8 samples); the median,
    3.55 (its ``(1024, 25)`` lane buffer and ``isfinite`` image, 1.47, its
    output, ALIE's one stored payload row, however many files it wins, and
    0.07 rows of index vectors, content ids and Python objects); the
    optimizer step, 3.08 (``w_{t+1}``, the aggregate and that stored row);
    ALIE's payload, 2.90 (``mean``, ``std`` and their scratch row).
    Measured 4.44 rows (0.18 matrices), observed or not; the bound is 5
    rows.  Each parameter-sized vector is held once: 7.95 rows while the
    median's lane block was ``LANE_BLOCK`` (4096) wide, 5.22 rows on its
    own, and ALIE's payload took a product and a sum beside ``std``; 10.94
    rows (0.44 matrices) while the vote copied its two out-voted rows out of
    the payload store and the PS broadcast a copy of ``w_t``; 0.48 matrices
    while the whole batch was gathered before the pass; 1.38 while the vote
    copied the honest matrix to change those two rows; 3.45 while each of
    the median, the vote, ALIE's ``std`` and the wide layer's backward made
    its own copy.  The observed case is a round of ``ScenarioRunner.run``'s
    own loop, digests included: they hash the winners from the vote's
    references, and digesting ``outcome.winners.densified()`` instead
    measured 1.28 matrices.  The layers' parameters are views of the
    broadcast (no copy of the model), but that does not show here: the
    copy they replaced was made before the trace started."""
    spec = headline_spec()
    if observed:
        peak, trainer = traced_round_peak(spec, monkeypatch)
    else:
        trainer = ScenarioRunner(spec).build_trainer()
        peak = steady_round_peak(trainer)
    row_bytes = trainer.gradient_computer.dim * 8
    assert trainer.cluster.assignment.num_files * row_bytes == 25 * 19_610 * 8
    assert peak < 5 * row_bytes, peak / row_bytes


def test_headline_round_peak_does_not_grow_with_the_distorted_files():
    """ALIE at q = 9 distorts 9 files of the headline round and q = 5 two,
    each with one colluding payload.  The winners reference that one stored
    row from every file it wins, so the round's peak grows by less than one
    ``(d,)`` row (measured: 227 bytes).  It grew by 7.0 rows while the vote
    copied the payload once per file it won."""
    peaks = {}
    for q in (5, 9):
        trainer = ScenarioRunner(headline_spec(q=q)).build_trainer()
        peaks[q] = steady_round_peak(trainer)
    row_bytes = trainer.gradient_computer.dim * 8
    assert peaks[9] - peaks[5] < row_bytes, (peaks[9] - peaks[5]) / row_bytes


def test_adaptive_bulyan_round_peaks_under_seven_rows():
    """``adaptive-bulyan-noniid`` of ``benchmarks/e2e`` on 1,000 training rows:
    Ramanujan K = 25, ByzShield + Bulyan (q = 3), a rotating min-max ``std``
    adversary with q = 5, batch 200, Dirichlet shards, d = 11,274 float64.
    Budget in ``(d,)`` rows above the round's start: 6.1 measured, at the
    min-max payload (its row chunk of the distance coefficients), with the
    gradient pass (5.9), the vote (5.1) and Bulyan (4.9) below it.  It
    measured 11.2 while ``column_mean_std`` centred ``(25, 4097)`` blocks,
    and Bulyan's trim, which gathered all 25 lanes of a block before
    picking its theta = 19, was the next floor (8.3)."""
    spec = ScenarioSpec.from_dict({
        "name": "round-memory-adaptive-bulyan",
        "cluster": {"scheme": "ramanujan", "params": {"m": 5, "s": 5}},
        "pipeline": {
            "kind": "byzshield",
            "aggregator": "bulyan",
            "aggregator_params": {"num_byzantine": 3},
        },
        "data": {
            "kind": "gaussian",
            "dim": 100,
            "num_classes": 10,
            "num_train": 1000,
            "num_test": 200,
            "partition": {"kind": "dirichlet", "alpha": 1.0},
        },
        "model": {"hidden": [64, 64]},
        "training": {
            "batch_size": 200,
            "num_iterations": 3,
            "eval_every": 3,
            "learning_rate": 0.1,
            "momentum": 0.0,
        },
        "attack": {
            "name": "min_max",
            "params": {"direction": "std"},
            "selection": "rotating",
            "schedule": {"kind": "rotating", "q": 5, "period": 1, "stride": 2},
        },
    })
    trainer = ScenarioRunner(spec).build_trainer()
    row_bytes = trainer.gradient_computer.dim * 8
    assert row_bytes == 11_274 * 8
    peak = steady_round_peak(trainer)
    assert peak < 7 * row_bytes, peak / row_bytes


def cells_spec(eval_every=6):
    """``async-hier-cells-traced`` of ``benchmarks/e2e`` on 1,000 training
    rows: Ramanujan K = 25 (f = 25, r = 5), ByzShield + median with a
    4096-wide vote, omniscient ALIE q = 2, exponential stragglers against a
    0.6 deadline in 5 groups, noise corruption, d = 11,274 float32; six
    rounds, evaluated every ``eval_every``-th and after the last."""
    return ScenarioSpec.from_dict({
        "name": "round-memory-cells",
        "cluster": {"scheme": "ramanujan", "params": {"m": 5, "s": 5}},
        "pipeline": {"kind": "byzshield", "aggregator": "median", "block_size": 4096},
        "data": {
            "kind": "gaussian",
            "dim": 100,
            "num_classes": 10,
            "num_train": 1000,
            "num_test": 200,
        },
        "model": {"hidden": [64, 64]},
        "training": {"batch_size": 200, "num_iterations": 6, "eval_every": eval_every},
        "attack": {
            "name": "alie",
            "selection": "omniscient",
            "schedule": {"kind": "static", "q": 2},
        },
        "faults": [
            {
                "kind": "stragglers",
                "params": {"count": 5, "delay_model": "exponential", "delay": 0.5},
            },
            {"kind": "corruption", "params": {"probability": 0.05, "mode": "noise"}},
        ],
        "runtime": {"deadline": 0.6, "quorum": 3},
        "topology": {"groups": 5},
        "dtype": "float32",
    })


def test_cells_round_vote_and_median_hold_one_block(monkeypatch):
    """Every round of the cells run, measured at the vote and the median:
    what each allocates above its entry.  The vote's comparisons end after
    their 64-coordinate probe (every stored payload differs from its base
    at once), and its hashes read the whole store in order as a view of its
    uint32 bits, so what it holds is the 64 KiB buffer NumPy widens them
    through: at most 70.6 KiB measured against a bound of 80 KiB.  The
    median over ``n`` decided files holds its ``(1024, f)`` lane buffer (one
    lane per file, an abstaining file's lanes at -inf), the even-``n`` pair
    and its ``(d,)`` result: 148.0 KiB (n = 25) and 148.8 KiB in the round
    where four files abstained (n = 21), against bounds of 160 and 168 KiB.
    They measured 199 KiB (a gathered block of uint32 bits on either side
    of the comparisons and in the hashes) and 171.0 / 174.5 KiB (the
    ``(n, 512)`` gather slices of the kept rows, the ``isfinite`` image and
    ``np.mean``'s float64 cast buffers).  The first vote also builds the
    ``(d,)`` uint64 hash weights and keeps them for every later vote: the
    run is made twice, from an empty weight cache, where the first vote is
    bounded with ``8 d`` more (150 KiB measured, 270 KiB while the weights
    were built in two arrays), and again with the weights built, where
    every round has the bounds above."""
    def measured(original, record):
        def call(*args, **kwargs):
            tracemalloc.start()
            try:
                result = original(*args, **kwargs)
                record(args, result, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return result

        return call

    votes, medians = [], []
    monkeypatch.setattr(
        pipelines_module,
        "majority_vote_votetensor",
        measured(
            pipelines_module.majority_vote_votetensor,
            lambda args, vote, peak: votes.append((int((vote.counts == 0).sum()), peak)),
        ),
    )
    monkeypatch.setattr(
        median_module,
        "coordinate_median",
        measured(
            median_module.coordinate_median,
            lambda args, out, peak: medians.append((args[0].shape[0], peak)),
        ),
    )
    f, d, itemsize = 25, 11_274, 4  # float32
    small_objects = 16 << 10
    vote_bound = (64 << 10) + small_objects
    monkeypatch.setattr(majority_module, "_HASH_WEIGHTS", np.empty(0, dtype=np.uint64))
    ScenarioRunner(cells_spec()).run()
    assert votes[0][1] <= vote_bound + 8 * d, votes
    votes.clear()
    medians.clear()
    ScenarioRunner(cells_spec()).run()
    assert len(votes) == len(medians) == 6
    assert any(abstained for abstained, _ in votes)
    assert max(peak for _, peak in votes) <= vote_bound, votes
    block = median_module._LANE_BLOCK
    for n, peak in medians:
        pair = block * 2 * itemsize if n % 2 == 0 else 0
        bound = block * f * itemsize + pair + d * itemsize + small_objects
        assert peak <= bound, (n, peak, bound)


def test_cells_run_holds_no_activation_after_an_evaluation(monkeypatch):
    """The cells run evaluated every second round: at the start of every
    round after the first evaluation, and after the run, no layer of the
    model holds a cache.  ``evaluate_model`` runs the caching forward pass
    and no backward pass, so until it released the layers, every round
    after an evaluation carried the last test batch's ``ReLU`` masks and
    ``Dense`` inputs (0.14 MiB of the benchmark's cells)."""
    evaluations, held = [], []
    step, evaluate = DistributedTrainer.step, DistributedTrainer.evaluate

    def caches(trainer):
        return [layer._cache for layer in trainer.gradient_computer.model.layers]

    def checked_step(trainer, at):
        if evaluations:
            held.append(caches(trainer))
        return step(trainer, at)

    def checked_evaluate(trainer):
        metrics = evaluate(trainer)
        evaluations.append(metrics)
        held.append(caches(trainer))
        return metrics

    monkeypatch.setattr(DistributedTrainer, "step", checked_step)
    monkeypatch.setattr(DistributedTrainer, "evaluate", checked_evaluate)
    result = ScenarioRunner(cells_spec(eval_every=2)).run()
    assert len(evaluations) == len(result.trace.evaluations) == 3
    assert len(held) == 3 + 4  # after each evaluation, and rounds 2 to 5
    assert all(cache is None for caches_then in held for cache in caches_then)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_stacked_pass_holds_one_chunk_of_activations(dtype):
    """``clean-compute-bound``'s pass (25 files of 256 samples, 100 -> 64 ->
    64 -> 10) holds no more than its chunk budget above its start.  Measured
    1.08 MiB in float64 (two files a chunk, 0.39 MiB of them the chunk's own
    gathered samples) and 1.43 MiB in float32 (five files).  While the budget
    left the gathered samples out and every activation took a new array, it
    measured 1.93 MiB (three files) and 2.37 MiB (seven files); 11.1 MiB in
    float64 while all 25 files' activations were alive at once."""
    model = build_mlp(100, 10, hidden=(64, 64), seed=0, dtype=dtype)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((25, 256, 100)).astype(dtype)
    files = RoundFiles.coerce((x, rng.integers(0, 10, (25, 256))))
    out = np.empty((25, model.num_parameters()), dtype=dtype)
    loss = SoftmaxCrossEntropy()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        model.per_file_loss_and_gradients(files, loss, out=out)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= models._CHUNK_BYTES, peak / (1 << 20)


def test_compute_bound_round_holds_one_chunk_not_the_batch():
    """``clean-compute-bound``'s round (MOLS K = 15, f = 25, batch 6400, 100
    -> 64 -> 64 -> 10, no attack) on 8,000 training rows instead of 20,000.
    Its steady-state peak above its start measured 1.20 MiB: one chunk of
    two files, its 0.39 MiB of gathered samples and its activations, plus
    the batch's indices and the round's small vectors, all within one chunk
    budget.  It measured 2.04 MiB while the budget left the gathered samples
    out (three files a chunk) and every activation took a new array, and
    6.42 MiB while the trainer gathered the whole 4.9 MiB batch before the
    pass."""
    spec = ScenarioSpec.from_dict({
        "name": "round-memory-compute-bound",
        "cluster": {"scheme": "mols", "params": {"load": 5, "replication": 3}},
        "pipeline": {"kind": "byzshield", "aggregator": "median"},
        "data": {
            "kind": "gaussian",
            "dim": 100,
            "num_classes": 10,
            "num_train": 8000,
            "num_test": 200,
        },
        "model": {"hidden": [64, 64]},
        "training": {
            "batch_size": 6400,
            "num_iterations": 3,
            "eval_every": 3,
            "learning_rate": 0.1,
            "momentum": 0.0,
        },
    })
    trainer = ScenarioRunner(spec).build_trainer()
    trainer.run_iteration(0)
    trainer.run_iteration(1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        trainer.run_iteration(2)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < models._CHUNK_BYTES, peak / (1 << 20)


# --------------------------------------------------------------------------- #
# Noise corruption
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("probability", [0.2, 0.6])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_noise_corruption_streams_one_draw_block(ramanujan_case2, dtype, probability):
    """Corrupting ``m`` slots with noise grows the store once to its ``m``
    rows and fills each slot's row in place, ``LANE_BLOCK`` coordinates at a
    time, from one float64 block of scratch: drawn into, scaled, the slot's
    read added in place and rounded once into its row.  Above what it keeps
    (the stored rows and the returned events) it holds one draw block and,
    for a float32 read, the buffer NumPy widens the block's read through as
    it adds it, one float64 block more.  8 KiB more covers the per-slot
    index arrays and Python objects, which vary by a few KiB with what ran
    before in the process.  Measured 60.7-62.9 KiB (float32) and 34.5 KiB
    (float64) at d = 20,000, whatever ``m``.  While the injector drew a
    float64 row of scratch and handed it back to be stored, it held 217-219
    and 159 KiB; the ``(m, d)`` float64 draw and the ``(m, d)`` read before
    that held 12 and 16 bytes per corrupted coordinate."""
    assignment = ramanujan_case2.assignment
    f, d = assignment.num_files, 20_000
    honest = np.random.default_rng(0).standard_normal((f, d)).astype(dtype)
    tensor = VoteTensor.from_honest(assignment, honest)
    injector = MessageCorruptionInjector(probability=probability, mode="noise", factor=2.0)
    context = FaultContext(assignment, iteration=0, rng=np.random.default_rng(1))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        events = injector.inject(tensor, context)
        kept, peak = (size - start for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    m = len(events)
    assert m > 1 and stored_rows(tensor) == m
    # what stays is the stored rows and the returned events
    assert m * d * np.dtype(dtype).itemsize <= kept
    block = LANE_BLOCK * 8
    widening = block if dtype is np.float32 else 0
    assert peak - kept <= block + widening + (8 << 10), (peak - kept) / 1024


# --------------------------------------------------------------------------- #
# Recycling the gradient matrix
# --------------------------------------------------------------------------- #
def round_inputs(trainer, shift=0.0):
    """``(params, file_data)`` of the trainer's next round; ``shift`` moves
    the parameters so that round's gradients differ from the last one's."""
    params = trainer.server.broadcast() + shift
    return params, trainer._next_files()


def address(array):
    return array.__array_interface__["data"][0]


class HoldingALIE(ALIEAttack):
    """ALIE that keeps the read-only view of the honest matrix it was shown."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def payload(self, context):
        self.seen.append(context.stacked_honest_gradients())
        return super().payload(context)


@pytest.fixture
def trainer():
    return ScenarioRunner(headline_spec(hidden=(16,))).build_trainer()


def test_dropped_round_gives_its_matrix_back(trainer):
    result = trainer.cluster.run_round_tensor(*round_inputs(trainer), 0)
    first, shape = address(result.honest_matrix), result.honest_matrix.shape
    del result
    occupier = np.empty(shape)  # takes the chunk, had the matrix been freed
    result = trainer.cluster.run_round_tensor(*round_inputs(trainer), 1)
    assert address(result.honest_matrix) == first != address(occupier)


def winners_of(trainer, result):
    """The round's winners: a selection over ``result.honest_matrix``."""
    return trainer.pipeline.aggregate_tensor(result.vote_tensor).winners


#: what a caller may keep from a round, and how its values are read
HOLDS = {
    "honest_matrix": (lambda trainer, result: result.honest_matrix, np.asarray),
    "row_view": (lambda trainer, result: result.honest_matrix[3], np.asarray),
    "vote_tensor": (lambda trainer, result: result.vote_tensor, cube_of),
    "round_result": (lambda trainer, result: result, lambda held: cube_of(held.vote_tensor)),
    "winners": (winners_of, lambda held: held.densified()),
    "winners_row": (lambda trainer, result: winners_of(trainer, result).base[3], np.asarray),
}


@pytest.mark.parametrize("hold", sorted(HOLDS))
def test_whatever_is_held_keeps_its_values(trainer, hold):
    take, read = HOLDS[hold]
    result = trainer.cluster.run_round_tensor(*round_inputs(trainer), 0)
    honest = result.honest_matrix.copy()
    first = address(result.honest_matrix)
    held = take(trainer, result)
    before = read(held).copy()
    if hold.startswith("winners"):  # not a copy: the matrix itself is what is held
        assert np.shares_memory(getattr(held, "base", held), result.honest_matrix)
    del result

    following = trainer.cluster.run_round_tensor(*round_inputs(trainer, shift=1.0), 1)
    assert address(following.honest_matrix) != first
    assert not np.array_equal(following.honest_matrix, honest)
    assert np.array_equal(read(held), before)


def test_unobserved_rounds_keep_recycling_one_matrix():
    """The winners reference the round's honest matrix; the trainer drops
    the outcome with the round, so the next ``batched`` call finds its
    matrix free again."""
    trainer = ScenarioRunner(headline_spec(hidden=(16,))).build_trainer()
    seen = []
    batched = trainer.gradient_computer.batched

    def recording(params, files):
        gradients, losses = batched(params, files)
        seen.append(address(gradients))
        return gradients, losses

    trainer.gradient_computer.batched = recording
    for iteration in range(4):
        trainer.run_iteration(iteration)
    assert seen[1] == seen[2] == seen[3]


def test_traced_rounds_keep_recycling_one_matrix(monkeypatch):
    """``ScenarioRunner.run`` digests each round and drops it before the next
    step, so the traced loop recycles one matrix too; a loop that kept a
    round alive (its result or its outcome) would alternate two."""
    seen = []
    batched = ModelGradientComputer.batched

    def recording(computer, params, files):
        gradients, losses = batched(computer, params, files)
        seen.append(address(gradients))
        return gradients, losses

    monkeypatch.setattr(ModelGradientComputer, "batched", recording)
    ScenarioRunner(headline_spec(hidden=(16,))).run()
    assert len(seen) == 4
    assert seen[1] == seen[2] == seen[3]


def test_held_attack_context_view_keeps_its_values(trainer):
    attack = HoldingALIE()
    trainer.cluster.attack = attack
    result = trainer.cluster.run_round_tensor(*round_inputs(trainer), 0)
    honest = result.honest_matrix.copy()
    del result
    trainer.cluster.run_round_tensor(*round_inputs(trainer, shift=1.0), 1)
    assert len(attack.seen) == 2
    assert np.array_equal(attack.seen[0], honest)
    assert not np.shares_memory(attack.seen[0], attack.seen[1])


def test_change_of_shape_or_dtype_allocates_afresh():
    """The computer recycles its matrix, and never hands one of the last
    call's shape or dtype to a call that needs another: every result equals
    a new computer's, bit for bit."""
    rng = np.random.default_rng(0)
    files = [(rng.standard_normal((4, 6)), rng.integers(0, 3, 4)) for _ in range(4)]
    computer = ModelGradientComputer(build_mlp(6, 3, hidden=(5,), seed=0))

    def fresh_and_recycled(files):
        params = computer.initial_params()
        expected, _ = ModelGradientComputer(computer.model).batched(params, files)
        gradients, _ = computer.batched(params, files)
        assert gradients.dtype == expected.dtype and np.array_equal(gradients, expected)
        return address(gradients)

    first = fresh_and_recycled(files)
    assert fresh_and_recycled(files) == first  # dropped, so handed out again
    fresh_and_recycled(files[:3])  # f changed
    computer.model = build_mlp(6, 3, hidden=(7,), seed=0)
    fresh_and_recycled(files[:3])  # d changed
    computer.model = build_mlp(6, 3, hidden=(7,), seed=0, dtype="float32")
    fresh_and_recycled(files[:3])  # dtype changed, f * d the same


def test_two_runs_in_one_process_first_result_held():
    spec = headline_spec(hidden=(16,), num_iterations=3)
    first = ScenarioRunner(spec).run()
    second = ScenarioRunner(spec).run()
    assert first.trace == second.trace
    assert first.trace.final_params_digest == second.trace.final_params_digest
