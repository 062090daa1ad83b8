"""Tests for the adaptive adversary zoo and the attack registry contract.

Covers the collusive inner-product / sign-flip payloads, the Fang
aggregator-aware search (every simulated defense), the AGR-agnostic
min-max / min-sum bisection, the vectorized ``apply_tensor`` write checked
against an edge-by-edge scatter for every family, and the registry's
sorted-names / one-class-per-name guarantees.
"""

import numpy as np
import pytest

from repro.attacks.adaptive import (
    FangAdaptiveAttack,
    MinMaxAttack,
    MinSumAttack,
    _corrupted_file_indices,
)
from repro.attacks.base import Attack, AttackContext
from repro.attacks.inner_product import InnerProductManipulationAttack
from repro.attacks.registry import available_attacks, create_attack, register_attack
from repro.attacks.sign_flip import SignFlipAttack
from repro.core.distortion import distorted_files
from repro.core.vote_tensor import VoteTensor
from repro.exceptions import AttackError, ConfigurationError

DIM = 9


def make_context(assignment, byzantine, seed=0):
    rng = np.random.default_rng(seed)
    honest = rng.standard_normal((assignment.num_files, DIM))
    return AttackContext(
        assignment=assignment,
        byzantine_workers=tuple(byzantine),
        honest_matrix=honest,
        iteration=0,
        rng=np.random.default_rng(seed + 1),
    )


# --------------------------------------------------------------------------- #
# Inner-product manipulation
# --------------------------------------------------------------------------- #
def test_inner_product_payload_reverses_mean(mols_assignment):
    context = make_context(mols_assignment, (0, 5, 9))
    payload = InnerProductManipulationAttack(epsilon=0.5).payload(context)
    mean = context.stacked_honest_gradients().mean(axis=0)
    assert np.array_equal(payload, -0.5 * mean)
    # Negative inner product with the descent direction is the whole point.
    assert float(payload @ mean) < 0


def test_inner_product_validation():
    with pytest.raises(AttackError):
        InnerProductManipulationAttack(epsilon=0.0)
    with pytest.raises(AttackError):
        InnerProductManipulationAttack(epsilon=float("nan"))


# --------------------------------------------------------------------------- #
# Sign-flip collusion
# --------------------------------------------------------------------------- #
def test_sign_flip_opposes_mean_sign(mols_assignment):
    context = make_context(mols_assignment, (0, 5))
    mean = context.stacked_honest_gradients().mean(axis=0)
    payload = SignFlipAttack(magnitude=2.0).payload(context)
    assert np.all(np.abs(payload) == 2.0)
    assert np.all(np.sign(payload[mean > 0]) == -1)
    assert np.all(np.sign(payload[mean < 0]) == 1)


def test_sign_flip_zero_mean_coordinate_pushes_negative(mols_assignment):
    honest = np.zeros((mols_assignment.num_files, DIM))
    context = AttackContext(
        assignment=mols_assignment,
        byzantine_workers=(0,),
        honest_matrix=honest,
    )
    assert np.all(SignFlipAttack().payload(context) == -1.0)


def test_sign_flip_validation():
    with pytest.raises(AttackError):
        SignFlipAttack(magnitude=0.0)
    with pytest.raises(AttackError):
        SignFlipAttack(magnitude=float("inf"))


# --------------------------------------------------------------------------- #
# Fang aggregator-aware search
# --------------------------------------------------------------------------- #
def test_corrupted_files_prefers_majority_distorted(mols_assignment):
    byzantine = (0, 1, 2, 3)
    context = make_context(mols_assignment, byzantine)
    expected = distorted_files(mols_assignment, byzantine)
    if expected.size:
        assert np.array_equal(_corrupted_file_indices(context), expected)


def test_corrupted_files_falls_back_to_touched(mols_assignment):
    # A single Byzantine worker cannot corrupt any r=3 majority, so the
    # fallback is every file it touches.
    context = make_context(mols_assignment, (4,))
    assert distorted_files(mols_assignment, (4,)).size == 0
    touched = sorted(int(f) for f in mols_assignment.files_of_worker(4))
    assert _corrupted_file_indices(context).tolist() == touched


@pytest.mark.parametrize("defense", FangAdaptiveAttack.DEFENSES)
def test_fang_deviates_simulated_defense(mols_assignment, defense):
    context = make_context(mols_assignment, (0, 1, 2, 3))
    honest = context.stacked_honest_gradients()
    payload = FangAdaptiveAttack(defense=defense).payload(context)
    corrupted = _corrupted_file_indices(context)
    population = np.array(honest, copy=True)
    population[corrupted] = payload
    if defense == "krum":
        # The crafted payload moves against the mean along sign(mean).
        mean = honest.mean(axis=0)
        assert float((payload - mean) @ np.sign(mean + (mean == 0))) < 0
    else:
        trim = min(corrupted.size, (honest.shape[0] - 1) // 2)
        aggregate = {
            "median": lambda m: np.median(m, axis=0),
            "trimmed_mean": lambda m: np.sort(m, axis=0)[
                trim : m.shape[0] - trim
            ].mean(axis=0),
            "mean": lambda m: m.mean(axis=0),
        }[defense]
        sign = np.where(honest.mean(axis=0) >= 0.0, 1.0, -1.0)
        deviation = float((aggregate(honest) - aggregate(population)) @ sign)
        assert deviation > 0


def test_fang_insertion_median_matches_dense_simulation(mols_assignment):
    # The searchsorted/prefix-sum closed forms must agree with literally
    # rebuilding the corrupted population and aggregating it.
    context = make_context(mols_assignment, (0, 1, 2, 3), seed=3)
    honest = context.stacked_honest_gradients()
    corrupted = _corrupted_file_indices(context)
    uncorrupted = np.setdiff1d(np.arange(honest.shape[0]), corrupted)
    reference = honest[uncorrupted]
    sorted_ref = np.sort(reference, axis=0)
    prefix = np.vstack(
        [np.zeros((1, DIM)), np.cumsum(sorted_ref, axis=0)]
    )
    payload = honest.min(axis=0) - 1.7
    population = np.array(honest, copy=True)
    population[corrupted] = payload
    n, k = honest.shape[0], corrupted.size
    clamped = min(k, (n - 1) // 2)
    for defense, trim in (("median", 0), ("trimmed_mean", clamped), ("mean", 0)):
        attack = FangAdaptiveAttack(defense=defense)
        closed = attack._defense_with_insertion(
            sorted_ref, prefix, payload, n, k, trim
        )
        dense = {
            "median": lambda: np.median(population, axis=0),
            "trimmed_mean": lambda: np.sort(population, axis=0)[
                trim : n - trim
            ].mean(axis=0),
            "mean": lambda: population.mean(axis=0),
        }[defense]()
        np.testing.assert_allclose(closed, dense, rtol=1e-12, atol=1e-12)


def test_fang_krum_payload_is_selected(mols_assignment):
    context = make_context(mols_assignment, (0, 1, 2, 3), seed=5)
    honest = context.stacked_honest_gradients()
    corrupted = _corrupted_file_indices(context)
    payload = FangAdaptiveAttack(defense="krum").payload(context)
    population = np.array(honest, copy=True)
    population[corrupted] = payload
    # Re-run a reference Krum over the corrupted population.
    f = population.shape[0]
    sq = np.einsum("ij,ij->i", population, population)
    distances = sq[:, None] + sq[None, :] - 2.0 * population @ population.T
    np.fill_diagonal(distances, np.inf)
    neighbors = max(1, f - min(corrupted.size, f - 3) - 2)
    scores = np.sort(distances, axis=1)[:, :neighbors].sum(axis=1)
    assert int(np.argmin(scores)) in set(int(i) for i in corrupted)


def test_fang_q0_prepare_is_safe(mols_assignment):
    context = make_context(mols_assignment, ())
    assert np.array_equal(
        FangAdaptiveAttack().payload(context),
        context.stacked_honest_gradients().mean(axis=0),
    )


def test_fang_validation():
    with pytest.raises(AttackError):
        FangAdaptiveAttack(defense="bulyan")
    with pytest.raises(AttackError):
        FangAdaptiveAttack(lambda_init=0.0)
    with pytest.raises(AttackError):
        FangAdaptiveAttack(num_steps=0)
    with pytest.raises(AttackError):
        FangAdaptiveAttack(trim=-1)
    with pytest.raises(AttackError):
        FangAdaptiveAttack(rtol=1.0)


# --------------------------------------------------------------------------- #
# Min-max / min-sum
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("direction", MinMaxAttack.DIRECTIONS)
def test_min_max_respects_spread_bound(mols_assignment, direction):
    context = make_context(mols_assignment, (0, 5, 9), seed=2)
    honest = context.stacked_honest_gradients()
    payload = MinMaxAttack(direction=direction).payload(context)
    max_to_honest = max(
        float(np.sum((payload - row) ** 2)) for row in honest
    )
    pair_max = max(
        float(np.sum((a - b) ** 2)) for a in honest for b in honest
    )
    assert max_to_honest <= pair_max + 1e-9
    # And the attack actually moved off the honest mean.
    assert not np.allclose(payload, honest.mean(axis=0))


def test_min_sum_respects_total_bound(mols_assignment):
    context = make_context(mols_assignment, (0, 5, 9), seed=2)
    honest = context.stacked_honest_gradients()
    payload = MinSumAttack().payload(context)
    total = sum(float(np.sum((payload - row) ** 2)) for row in honest)
    bound = max(
        sum(float(np.sum((a - b) ** 2)) for b in honest) for a in honest
    )
    assert total <= bound + 1e-9


def test_min_max_zero_mean_unit_direction(mols_assignment):
    honest = np.zeros((mols_assignment.num_files, DIM))
    context = AttackContext(
        assignment=mols_assignment,
        byzantine_workers=(0,),
        honest_matrix=honest,
    )
    # must not divide by zero
    assert np.all(np.isfinite(MinMaxAttack(direction="unit").payload(context)))


def test_optimized_deviation_validation():
    with pytest.raises(AttackError):
        MinMaxAttack(direction="sideways")
    with pytest.raises(AttackError):
        MinSumAttack(gamma_init=-1.0)
    with pytest.raises(AttackError):
        MinSumAttack(num_steps=0)


# --------------------------------------------------------------------------- #
# apply_tensor vs a per-(worker, file) scatter of the payload — every new family
# --------------------------------------------------------------------------- #
NEW_FAMILIES = [
    ("inner_product", {}),
    ("sign_flip", {}),
    ("fang", {"defense": "median"}),
    ("fang", {"defense": "trimmed_mean"}),
    ("fang", {"defense": "mean"}),
    ("fang", {"defense": "krum"}),
    ("min_max", {"direction": "unit"}),
    ("min_max", {"direction": "sign"}),
    ("min_sum", {"direction": "std"}),
]


@pytest.mark.parametrize("name,params", NEW_FAMILIES)
def test_dict_adapter_matches_apply_tensor(mols_assignment, name, params):
    """The mask-driven vectorized write equals a ``{(worker, file): payload}``
    dict scattered edge by edge with ``set_vote`` (the test's own adapter)."""
    byzantine = (0, 3, 7, 11)
    honest = np.random.default_rng(13).standard_normal(
        (mols_assignment.num_files, DIM)
    )

    def context():
        return AttackContext(
            assignment=mols_assignment,
            byzantine_workers=byzantine,
            honest_matrix=honest,
            iteration=1,
            rng=np.random.default_rng(21),
        )

    tensor_path = VoteTensor.from_honest(mols_assignment, honest)
    dict_path = VoteTensor.from_honest(mols_assignment, honest)
    tensor_path.mark_byzantine(byzantine)
    create_attack(name, **params).apply_tensor(context(), tensor_path)
    payload = create_attack(name, **params).payload(context())
    crafted = {
        (worker, file): payload
        for worker in byzantine
        for file in mols_assignment.files_of_worker(worker)
    }
    for (worker, file), vector in crafted.items():
        dict_path.set_vote(file, worker, vector)
    assert tensor_path.is_lazy  # vectorized writes must never densify
    assert tensor_path.num_override_rows == 1  # one colluding vector, stored once
    every_file = np.arange(mols_assignment.num_files)
    assert np.array_equal(
        tensor_path.materialize_files(every_file),
        dict_path.materialize_files(every_file),
    )


# --------------------------------------------------------------------------- #
# Registry contract
# --------------------------------------------------------------------------- #
def test_available_attacks_sorted_and_complete():
    names = available_attacks()
    assert names == sorted(names)
    for expected in ("inner_product", "sign_flip", "fang", "min_max", "min_sum"):
        assert expected in names


def test_register_attack_rejects_silent_overwrite(monkeypatch):
    from repro.attacks import registry
    from repro.attacks.alie import ALIEAttack

    monkeypatch.setattr(registry._REGISTRY, "_classes", dict(registry._REGISTRY._classes))

    class Impostor(Attack):
        attack_name = "ALIE"  # names match case-insensitively

    with pytest.raises(ConfigurationError, match="'ALIE' is already registered"):
        register_attack(Impostor)
    # The registry still resolves the original class.
    assert type(create_attack("alie")) is ALIEAttack


def test_register_attack_overwrite_flag_and_subclass_check(monkeypatch):
    """A class joins under its own ``attack_name``, exactly once; there is
    no overwrite flag, and only ``Attack`` subclasses are accepted."""
    from repro.attacks import registry

    monkeypatch.setattr(registry._REGISTRY, "_classes", dict(registry._REGISTRY._classes))

    class Custom(Attack):
        attack_name = "zoo_test_custom"

    register_attack(Custom)
    assert "zoo_test_custom" in available_attacks()
    assert type(create_attack("zoo_test_custom")) is Custom
    with pytest.raises(ConfigurationError, match="already registered"):
        register_attack(Custom)
    with pytest.raises(ConfigurationError, match="does not subclass Attack"):
        register_attack(int)
