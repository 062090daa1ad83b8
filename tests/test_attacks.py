"""Tests for the attack payloads (ALIE, constant, reversed gradient, noise)."""

import numpy as np
import pytest

from repro.attacks.alie import ALIEAttack, alie_z_max
from repro.attacks.base import Attack, AttackContext
from repro.attacks.constant import ConstantAttack
from repro.attacks.noise import GaussianNoiseAttack, UniformRandomAttack
from repro.attacks.reversed_gradient import ReversedGradientAttack
from repro.core.vote_tensor import VoteTensor
from repro.exceptions import AttackError, ConfigurationError


DIM = 6


def make_context(assignment, byzantine, seed=0, gradient_scale=1.0):
    rng = np.random.default_rng(seed)
    honest = gradient_scale * rng.standard_normal((assignment.num_files, DIM))
    return AttackContext(
        assignment=assignment,
        byzantine_workers=tuple(byzantine),
        honest_matrix=honest,
        iteration=0,
        rng=np.random.default_rng(seed + 1),
    )


def attacked(attack, context):
    """The round's tensor after ``attack`` ran, plus its Byzantine (files, slots)."""
    tensor = VoteTensor.from_honest(context.assignment, context.honest_matrix)
    tensor.mark_byzantine(context.byzantine_workers)
    attack.apply_tensor(context, tensor)
    files, slots = np.nonzero(tensor.byzantine_mask)
    return tensor, files, slots


def test_context_properties(mols_assignment):
    context = make_context(mols_assignment, (0, 5))
    assert context.num_byzantine == 2
    assert context.gradient_dim == DIM
    honest = context.stacked_honest_gradients()
    assert honest.shape == (25, DIM)
    with pytest.raises(ValueError):
        honest[0, 0] = 1.0  # the ground truth is read-only for attacks


def test_apply_covers_all_byzantine_files(mols_assignment):
    context = make_context(mols_assignment, (0, 5))
    tensor, files, slots = attacked(ReversedGradientAttack(), context)
    written = {(int(tensor.workers[f, k]), int(f)) for f, k in zip(files, slots)}
    expected = {(w, f) for w in (0, 5) for f in mols_assignment.files_of_worker(w)}
    assert written == expected
    assert tensor.num_overridden_slots == len(expected)


def test_apply_empty_byzantine_set(mols_assignment):
    context = make_context(mols_assignment, ())
    for attack in (ReversedGradientAttack(), ALIEAttack(), GaussianNoiseAttack()):
        tensor, files, _ = attacked(attack, context)
        assert files.size == 0 and tensor.num_overridden_slots == 0


def test_reversed_gradient_payload(mols_assignment):
    context = make_context(mols_assignment, (0,))
    tensor, files, slots = attacked(ReversedGradientAttack(scale=10.0), context)
    assert np.allclose(
        tensor.read_slots(files, slots), -10.0 * context.honest_matrix[files]
    )


def test_reversed_gradient_validation():
    with pytest.raises(AttackError):
        ReversedGradientAttack(scale=0.0)
    with pytest.raises(AttackError):
        ReversedGradientAttack(scale=float("inf"))


def test_constant_attack_payload(mols_assignment):
    context = make_context(mols_assignment, (3,))
    assert ConstantAttack(value=-2.0).payload(context) == -2.0
    tensor, files, slots = attacked(ConstantAttack(value=-2.0), context)
    assert files.size == 5 and np.all(tensor.read_slots(files, slots) == -2.0)
    with pytest.raises(AttackError):
        ConstantAttack(value=float("nan"))


def test_alie_z_max_values():
    # With many voters and few Byzantines the deflection is moderate and positive.
    z = alie_z_max(25, 3)
    assert 0.0 < z < 3.0
    # More Byzantines need fewer honest "supporters", so they can afford a
    # larger deflection while still hiding inside the honest distribution.
    assert alie_z_max(25, 11) >= alie_z_max(25, 3)
    # Degenerate regimes fall back to safe values.
    assert alie_z_max(4, 4) == 1.0
    with pytest.raises(AttackError):
        alie_z_max(0, 0)
    with pytest.raises(AttackError):
        alie_z_max(5, 9)


def test_alie_z_max_is_memoised_but_never_caches_an_error():
    alie_z_max.cache_clear()
    assert alie_z_max(25, 5) == alie_z_max(25, 5)
    info = alie_z_max.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    for _ in range(2):  # a refused pair is refused every time it is asked
        with pytest.raises(AttackError):
            alie_z_max(0, 0)
        with pytest.raises(AttackError):
            alie_z_max(5, 9)
    assert alie_z_max.cache_info().currsize == 1


def test_alie_payload_is_mean_shifted(mols_assignment):
    context = make_context(mols_assignment, (0, 5), gradient_scale=2.0)
    honest = context.stacked_honest_gradients()
    expected = honest.mean(axis=0) - 1.5 * honest.std(axis=0)
    assert np.allclose(ALIEAttack(z=1.5).payload(context), expected)


def test_alie_positive_direction(mols_assignment):
    context = make_context(mols_assignment, (0,))
    attack = ALIEAttack(z=1.0, negative_direction=False)
    honest = context.stacked_honest_gradients()
    expected = honest.mean(axis=0) + honest.std(axis=0)
    assert np.allclose(attack.payload(context), expected)


def test_alie_all_payloads_identical_collusion(mols_assignment):
    context = make_context(mols_assignment, (0, 5, 10))
    attack = ALIEAttack()
    tensor, files, slots = attacked(attack, context)
    payloads = tensor.read_slots(files, slots)
    assert files.size == 15
    assert np.array_equal(payloads, np.tile(attack.payload(context), (15, 1)))
    assert tensor.num_override_rows == 1  # one colluding vector, stored once


def test_alie_invalid_z():
    with pytest.raises(AttackError):
        ALIEAttack(z=-1.0)


def test_gaussian_noise_attack(mols_assignment):
    context = make_context(mols_assignment, (0,))
    tensor, files, slots = attacked(GaussianNoiseAttack(sigma=5.0), context)
    payloads = tensor.read_slots(files, slots)
    assert payloads.shape == (5, DIM)
    assert np.all(np.std(payloads, axis=1) > 0)
    assert len({row.tobytes() for row in payloads}) == 5  # no collusion
    with pytest.raises(AttackError):
        GaussianNoiseAttack(sigma=0.0)


def test_gaussian_noise_around_true_gradient(mols_assignment):
    context = make_context(mols_assignment, (0,))
    attack = GaussianNoiseAttack(sigma=1e-6, around_true_gradient=True)
    tensor, files, slots = attacked(attack, context)
    payloads = tensor.read_slots(files, slots)
    assert np.allclose(payloads, context.honest_matrix[files], atol=1e-4)
    assert not np.array_equal(payloads, context.honest_matrix[files])


def test_uniform_random_attack(mols_assignment):
    context = make_context(mols_assignment, (1,))
    tensor, files, slots = attacked(UniformRandomAttack(magnitude=2.0), context)
    assert files.size == 5
    assert np.all(np.abs(tensor.read_slots(files, slots)) <= 2.0)
    with pytest.raises(AttackError):
        UniformRandomAttack(magnitude=-1.0)


def test_attack_dimension_check(mols_assignment):
    """A wrong-size payload is a typed error, never a silent broadcast."""

    class ShortPayload(Attack):
        def payload(self, context):
            return np.zeros(3)  # wrong dimension

    class OneCoordinate(Attack):
        def payload(self, context):
            return np.zeros(1)  # would broadcast over every coordinate

    class WrongRowCount(Attack):
        def apply_tensor(self, context, tensor):
            files, slots = np.nonzero(tensor.byzantine_mask)
            tensor.write_slots(files, slots, np.zeros((2, tensor.dim)))

    context = make_context(mols_assignment, (0,))
    for attack in (ShortPayload(), OneCoordinate(), WrongRowCount()):
        with pytest.raises(ConfigurationError, match="payload has shape"):
            attacked(attack, context)
        # the dense branch validates too
        dense = VoteTensor.from_honest(mols_assignment, context.honest_matrix)
        dense.mark_byzantine(context.byzantine_workers)
        assert dense.values is not None and not dense.is_lazy
        with pytest.raises(ConfigurationError, match="payload has shape"):
            attack.apply_tensor(context, dense)


def test_attack_without_a_hook_is_a_clear_error(mols_assignment):
    context = make_context(mols_assignment, (0,))
    with pytest.raises(NotImplementedError, match="payload"):
        attacked(Attack(), context)
