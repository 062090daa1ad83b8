"""Unit tests for the VoteTensor round representation."""

import numpy as np
import pytest

from repro.core.vote_tensor import VoteTensor
from repro.exceptions import ConfigurationError, TrainingError
from repro.nn.models import build_mlp
from repro.training.gradients import ModelGradientComputer

from cow_helpers import cube_of


def honest_matrix(num_files, dim, seed=0):
    return np.random.default_rng(seed).standard_normal((num_files, dim))


# --------------------------------------------------------------------------- #
# Construction and validation
# --------------------------------------------------------------------------- #
def test_from_honest_broadcasts_rows(mols_assignment):
    matrix = honest_matrix(25, 4)
    tensor = VoteTensor.from_honest(mols_assignment, matrix)
    assert tensor.shape == (25, 3, 4)
    cube = cube_of(tensor)
    for i in range(25):
        for k in range(3):
            assert np.array_equal(cube[i, k], matrix[i])
    assert not tensor.byzantine_mask.any()
    assert tensor.num_overridden_slots == tensor.num_override_rows == 0


def test_worker_slot_matrix_rows_are_sorted_neighborhoods(mols_assignment):
    slots = mols_assignment.worker_slot_matrix()
    assert slots.shape == (25, 3)
    for i in range(25):
        assert tuple(slots[i]) == mols_assignment.workers_of_file(i)
    # cached and read-only
    assert mols_assignment.worker_slot_matrix() is slots
    with pytest.raises(ValueError):
        slots[0, 0] = 99


def test_from_honest_validates_matrix(mols_assignment):
    with pytest.raises(ConfigurationError):
        VoteTensor.from_honest(mols_assignment, honest_matrix(24, 4))
    with pytest.raises(ConfigurationError):
        VoteTensor.from_honest(mols_assignment, np.zeros(4))


# --------------------------------------------------------------------------- #
# Mutation helpers
# --------------------------------------------------------------------------- #
def test_write_slots_rejects_wrong_payload_shapes(ramanujan_case1):
    """Scalar, (d,), (1, d) and (m, d) are the only payload shapes; a (1,)
    array must not silently broadcast over every coordinate."""
    assignment = ramanujan_case1.assignment
    tensor = VoteTensor.from_honest(assignment, honest_matrix(25, 10))
    files, slots = np.array([0, 1, 2]), np.array([0, 1, 2])
    for bad in (np.zeros(3), np.zeros(1), np.zeros((2, 10)), np.zeros((3, 9))):
        with pytest.raises(ConfigurationError, match="payload has shape"):
            tensor.write_slots(files, slots, bad)
    for good in (1.5, np.ones(10), np.ones((1, 10)), np.ones((3, 10))):
        tensor.write_slots(files, slots, good)
        assert np.all(tensor.read_slots(files, slots) == good)
    assert tensor.num_overridden_slots == 3
    # three shared payloads and one per-slot matrix
    assert tensor.num_override_rows == 3 + 3


def test_mark_byzantine(mols_assignment):
    tensor = VoteTensor.from_honest(mols_assignment, honest_matrix(25, 4))
    tensor.mark_byzantine([0, 5])
    assert np.array_equal(tensor.byzantine_mask, np.isin(tensor.workers, [0, 5]))
    tensor.mark_byzantine([])
    assert not tensor.byzantine_mask.any()


def test_from_honest_is_the_only_constructor(mols_assignment):
    """No dense (f, r, d) constructor: a tensor is an honest base plus writes."""
    matrix = honest_matrix(25, 4)
    with pytest.raises(TypeError):
        VoteTensor(np.repeat(matrix[:, None], 3, axis=1), mols_assignment.worker_slot_matrix())
    tensor = VoteTensor.from_honest(mols_assignment, matrix)
    assert not hasattr(tensor, "values")
    with pytest.raises(ValueError):
        tensor.base_rows()[0, 0] = 1.0


# --------------------------------------------------------------------------- #
# Batched gradient computation
# --------------------------------------------------------------------------- #
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
