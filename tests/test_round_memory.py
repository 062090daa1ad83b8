"""A steady-state round allocates one full-width array, and recycling is unobservable.

After round 0 the paper-headline round (ByzShield + median under a static
ALIE adversary) builds nothing of size ``f * d`` but the winners matrix it
hands on: the median, the vote's row comparison and ALIE's statistics stream
coordinate blocks, the layers write their per-file gradients in place, and
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


def headline_spec(hidden=(128, 48), num_iterations=4):
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
            "schedule": {"kind": "static", "q": 5},
        },
    })


def test_steady_state_round_peaks_under_two_gradient_matrices():
    """Measured at this shape: 1.38 matrices (the winners, block buffers, a
    few ``(d,)`` vectors and the batch); 3.45 while each of the median, the
    vote, ALIE's ``std`` and the wide layer's backward made its own copy."""
    trainer = ScenarioRunner(headline_spec()).build_trainer()
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
    assert peak - start <= 2.0 * matrix_bytes


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


@pytest.mark.parametrize(
    "hold",
    [
        lambda result: result.honest_matrix,
        lambda result: result.honest_matrix[3],
        lambda result: result.vote_tensor,
        lambda result: result,
    ],
    ids=["honest_matrix", "row_view", "vote_tensor", "round_result"],
)
def test_whatever_is_held_keeps_its_values(trainer, hold):
    result = trainer.cluster.run_round_tensor(*round_inputs(trainer), 0)
    honest = result.honest_matrix.copy()
    votes = result.vote_tensor.copy().values.copy()
    first = address(result.honest_matrix)
    held = hold(result)
    del result

    following = trainer.cluster.run_round_tensor(*round_inputs(trainer, shift=1.0), 1)
    assert address(following.honest_matrix) != first
    assert not np.array_equal(following.honest_matrix, honest)
    if isinstance(held, np.ndarray):
        assert np.array_equal(held, honest if held.ndim == 2 else honest[3])
    else:
        tensor = getattr(held, "vote_tensor", held)
        assert tensor.is_lazy
        assert np.array_equal(tensor.values, votes)


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
