"""Unit tests for the VoteTensor round representation."""

import numpy as np
import pytest

from repro.core.vote_tensor import VoteTensor
from repro.exceptions import ConfigurationError, TrainingError
from repro.nn.models import build_mlp
from repro.training.gradients import ModelGradientComputer


def honest_matrix(num_files, dim, seed=0):
    return np.random.default_rng(seed).standard_normal((num_files, dim))


# --------------------------------------------------------------------------- #
# Construction and validation
# --------------------------------------------------------------------------- #
def test_from_honest_broadcasts_rows(mols_assignment):
    matrix = honest_matrix(25, 4)
    tensor = VoteTensor.from_honest(mols_assignment, matrix)
    assert tensor.shape == (25, 3, 4)
    for i in range(25):
        for k in range(3):
            assert np.array_equal(tensor.values[i, k], matrix[i])
    assert not tensor.byzantine_mask.any()


def test_worker_slot_matrix_rows_are_sorted_neighborhoods(mols_assignment):
    slots = mols_assignment.worker_slot_matrix()
    assert slots.shape == (25, 3)
    for i in range(25):
        assert tuple(slots[i]) == mols_assignment.workers_of_file(i)
    # cached and read-only
    assert mols_assignment.worker_slot_matrix() is slots
    with pytest.raises(ValueError):
        slots[0, 0] = 99


def test_constructor_rejects_bad_shapes(mols_assignment):
    matrix = honest_matrix(25, 4)
    tensor = VoteTensor.from_honest(mols_assignment, matrix)
    with pytest.raises(ConfigurationError):
        VoteTensor(tensor.values[0], tensor.workers)  # 2-D values
    with pytest.raises(ConfigurationError):
        VoteTensor(tensor.values, tensor.workers[:, :2])  # shape mismatch
    with pytest.raises(ConfigurationError):
        VoteTensor(tensor.values, tensor.workers[:, ::-1])  # not increasing
    with pytest.raises(ConfigurationError):
        VoteTensor(tensor.values, tensor.workers, np.zeros((2, 2), dtype=bool))


def test_from_honest_validates_matrix(mols_assignment):
    with pytest.raises(ConfigurationError):
        VoteTensor.from_honest(mols_assignment, honest_matrix(24, 4))
    with pytest.raises(ConfigurationError):
        VoteTensor.from_honest(mols_assignment, np.zeros(4))


# --------------------------------------------------------------------------- #
# Mutation helpers
# --------------------------------------------------------------------------- #
def test_set_vote_and_slot_lookup(mols_assignment):
    tensor = VoteTensor.from_honest(mols_assignment, honest_matrix(25, 4))
    workers = mols_assignment.workers_of_file(3)
    payload = np.arange(4, dtype=np.float64)
    tensor.set_vote(3, workers[1], payload)
    assert np.array_equal(tensor.values[3, 1], payload)
    assert tensor.slot_of(3, workers[-1]) == len(workers) - 1
    with pytest.raises(ConfigurationError):
        tensor.set_vote(3, 999, payload)
    with pytest.raises(ConfigurationError):
        tensor.set_vote(3, workers[0], np.zeros(5))


def test_write_slots_rejects_wrong_payload_shapes(ramanujan_case1):
    """Scalar, (d,), (1, d) and (m, d) are the only payload shapes — lazy or
    dense; a (1,) array must not silently broadcast over every coordinate."""
    assignment = ramanujan_case1.assignment
    lazy = VoteTensor.from_honest(assignment, honest_matrix(25, 10))
    dense = lazy.copy()
    assert dense.values is not None and not dense.is_lazy
    files, slots = np.array([0, 1, 2]), np.array([0, 1, 2])
    for tensor in (lazy, dense):
        for bad in (np.zeros(3), np.zeros(1), np.zeros((2, 10)), np.zeros((3, 9))):
            with pytest.raises(ConfigurationError, match="payload has shape"):
                tensor.write_slots(files, slots, bad)
        for good in (1.5, np.ones(10), np.ones((1, 10)), np.ones((3, 10))):
            tensor.write_slots(files, slots, good)
        assert np.all(tensor.read_slots(files, slots) == 1.0)
    assert lazy.is_lazy and lazy.num_overridden_slots == 3


def test_mark_byzantine(mols_assignment):
    tensor = VoteTensor.from_honest(mols_assignment, honest_matrix(25, 4))
    tensor.mark_byzantine([0, 5])
    assert np.array_equal(tensor.byzantine_mask, np.isin(tensor.workers, [0, 5]))
    tensor.mark_byzantine([])
    assert not tensor.byzantine_mask.any()


def test_copy_is_independent(mols_assignment):
    tensor = VoteTensor.from_honest(mols_assignment, honest_matrix(25, 4))
    clone = tensor.copy()
    clone.values[0, 0, 0] = 123.0
    clone.byzantine_mask[0, 0] = True
    assert tensor.values[0, 0, 0] != 123.0
    assert not tensor.byzantine_mask[0, 0]


# --------------------------------------------------------------------------- #
# Batched gradient computation
# --------------------------------------------------------------------------- #
def test_batched_gradients_match_per_file_calls(rng):
    model = build_mlp(6, 3, hidden=(8,), seed=0)
    computer = ModelGradientComputer(model)
    params = computer.initial_params()
    files = [
        (rng.standard_normal((4, 6)), rng.integers(0, 3, 4)) for _ in range(5)
    ]
    stacked_grads, stacked_losses = computer.batched(params, files)
    assert stacked_grads.shape == (5, computer.dim)
    for i, (x, y) in enumerate(files):
        gradient, loss = computer(params, x, y)
        assert np.array_equal(stacked_grads[i], gradient)
        assert stacked_losses[i] == loss


def test_batched_accepts_stacked_arrays(rng):
    model = build_mlp(6, 3, hidden=(8,), seed=0)
    computer = ModelGradientComputer(model)
    params = computer.initial_params()
    inputs = rng.standard_normal((5, 4, 6))
    labels = rng.integers(0, 3, (5, 4))
    a, la = computer.batched(params, (inputs, labels))
    b, lb = computer.batched(params, list(zip(inputs, labels)))
    assert np.array_equal(a, b)
    assert np.array_equal(la, lb)


def test_batched_rejects_empty(rng):
    model = build_mlp(6, 3, hidden=(8,), seed=0)
    computer = ModelGradientComputer(model)
    params = computer.initial_params()
    with pytest.raises(TrainingError):
        computer.batched(params, [])
    with pytest.raises(TrainingError):
        computer.batched(params, [(np.zeros((0, 6)), np.zeros(0, dtype=int))])
