"""A steady-state round allocates no full-width array, and recycling is unobservable.

After round 0 the paper-headline round (ByzShield + median under a static
ALIE adversary) builds nothing of size ``f * d``: the vote hands its winners
on as the honest matrix plus the few rows that out-voted it, the median, the
vote's row comparison and ALIE's statistics stream coordinate blocks, the
layers write their per-file gradients in place, and
:meth:`ModelGradientComputer.batched` hands the previous round's gradient
matrix out again — but only when nothing else still references it, which is
what the second half of this file pins from every side a caller can hold on.
"""

import tracemalloc

import numpy as np
import pytest

from repro.attacks.alie import ALIEAttack
from repro.nn.models import build_mlp
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ScenarioSpec
from repro.training.gradients import ModelGradientComputer


def headline_spec(hidden=(128, 48), num_iterations=4, groups=None):
    """``sync-alie-wide`` of ``benchmarks/e2e`` at d = 19,610: Ramanujan
    K = 25 (f = 25, r = 5), ByzShield + median, omniscient static ALIE q = 5,
    an MLP on Gaussian data; ``groups`` votes it hierarchically."""
    return ScenarioSpec.from_dict({
        "name": "round-memory",
        "description": "the paper-headline round, narrower",
        "cluster": {"scheme": "ramanujan", "params": {"m": 5, "s": 5}},
        "pipeline": {"kind": "byzshield", "aggregator": "median"},
        **({} if groups is None else {"topology": {"groups": groups}}),
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
            "schedule": {"kind": "static", "q": 5},
        },
    })


@pytest.mark.parametrize("groups", [None, 5], ids=["flat", "hierarchical"])
def test_steady_state_round_peaks_under_one_gradient_matrix(groups):
    """Measured at this shape: 0.48 matrices (two out-voted rows, block
    buffers, a few ``(d,)`` vectors and the batch); 1.38 while the vote
    copied the honest matrix to change those two rows; 3.45 while each of
    the median, the vote, ALIE's ``std`` and the wide layer's backward made
    its own copy."""
    trainer = ScenarioRunner(headline_spec(groups=groups)).build_trainer()
    matrix_bytes = trainer.cluster.assignment.num_files * trainer.gradient_computer.dim * 8
    assert matrix_bytes == 25 * 19_610 * 8
    trainer.run_iteration(0)
    trainer.run_iteration(1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        trainer.run_iteration(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 1.0 * matrix_bytes


# --------------------------------------------------------------------------- #
# Recycling the gradient matrix
# --------------------------------------------------------------------------- #
def round_inputs(trainer, shift=0.0):
    """``(params, file_data)`` of the trainer's next round; ``shift`` moves
    the parameters so that round's gradients differ from the last one's."""
    params = trainer.server.broadcast() + shift
    return params, trainer._file_data(trainer._next_file_indices())


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


def cube_of(tensor):
    return tensor.copy().values  # the copy shares the base, the tensor stays lazy


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
    assert getattr(getattr(held, "vote_tensor", held), "is_lazy", True)


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


@pytest.mark.parametrize("engine", ModelGradientComputer.ENGINES)
def test_change_of_shape_or_dtype_allocates_afresh(engine):
    """Both engines recycle, and neither hands a matrix of the last call's
    shape or dtype to a call that needs another: every result equals a new
    computer's, bit for bit."""
    rng = np.random.default_rng(0)
    files = [(rng.standard_normal((4, 6)), rng.integers(0, 3, 4)) for _ in range(4)]
    computer = ModelGradientComputer(build_mlp(6, 3, hidden=(5,), seed=0), engine=engine)

    def fresh_and_recycled(files):
        params = computer.initial_params()
        expected, _ = ModelGradientComputer(computer.model, engine=engine).batched(params, files)
        gradients, _ = computer.batched(params, files)
        assert computer.last_engine == engine
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
