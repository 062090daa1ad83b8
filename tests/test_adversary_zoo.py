"""Tests for the adaptive adversary zoo and the attack registry contract.

Covers the collusive inner-product / sign-flip payloads, the Fang
aggregator-aware search (every simulated defense), the AGR-agnostic
min-max / min-sum bisection, the vectorized ``apply_tensor`` write checked
against an edge-by-edge scatter for every family, and the registry's
sorted-names / one-class-per-name guarantees.
"""

import numpy as np
import pytest

import repro.attacks.adaptive as adaptive
from repro.attacks.adaptive import (
    FangAdaptiveAttack,
    MinMaxAttack,
    MinSumAttack,
    _corrupted_file_indices,
)
from repro.attacks.base import Attack
from repro.attacks.inner_product import InnerProductManipulationAttack
from repro.attacks.registry import available_attacks, create_attack, register_attack
from repro.attacks.sign_flip import SignFlipAttack
from repro.core.distortion import distorted_files
from repro.exceptions import AttackError, ConfigurationError
from repro.utils.arrays import GATHER_ELEMENTS

from cow_helpers import attack_context

DIM = 9


def make_context(assignment, byzantine, seed=0):
    rng = np.random.default_rng(seed)
    honest = rng.standard_normal((assignment.num_files, DIM))
    return attack_context(assignment, byzantine, honest, seed=seed + 1)


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
    context = attack_context(mols_assignment, (0,), honest)
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


@pytest.mark.parametrize("left_out", [0, 1, 5, 12, 13])
def test_rank_of_union_is_the_sorted_union_entry(left_out):
    """Fang's median baseline reads every rank of the honest rows off two
    sorted sets: each equals the full sort's entry, ties, signed zeros and
    an empty set included."""
    rng = np.random.default_rng(left_out)
    values = rng.choice([-2.0, -1.0, -0.0, 0.0, 0.5, 3.0], size=(13, 40))
    values[:, :20] = rng.standard_normal((13, 20))
    kept = values[left_out:].T.copy()
    rest = values[:left_out].T.copy()
    kept.sort(axis=1)
    rest.sort(axis=1)
    full = np.sort(values.T, axis=1)
    for rank in range(values.shape[0]):
        assert np.array_equal(adaptive._rank_of_union(kept, rest, rank), full[:, rank])


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
        FangAdaptiveAttack(trim=-1)


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
    context = attack_context(mols_assignment, (0,), honest)
    # must not divide by zero
    assert np.all(np.isfinite(MinMaxAttack(direction="unit").payload(context)))


def test_optimized_deviation_validation():
    with pytest.raises(AttackError):
        MinMaxAttack(direction="sideways")


def _unchunked_coefficients(honest, mu, u):
    """The line search's coefficients from one ``(f, d)`` ``µ − g`` matrix,
    as they were computed before the row chunks."""
    diff = mu[None, :] - honest
    return np.einsum("ij,ij->i", diff, diff), diff @ u, float(u @ u)


#: every attack whose payload is a point on a line searched through the
#: ``(a, b, c)`` coefficients
LINE_SEARCHES = [MinMaxAttack(direction=d) for d in MinMaxAttack.DIRECTIONS]
LINE_SEARCHES += [MinSumAttack(direction=d) for d in MinSumAttack.DIRECTIONS]
LINE_SEARCHES += [FangAdaptiveAttack(defense="krum")]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize(
    "attack",
    LINE_SEARCHES,
    ids=[f"{a.attack_name}-{getattr(a, 'direction', 'krum')}" for a in LINE_SEARCHES],
)
def test_row_chunked_coefficients_keep_the_payload(attack, dtype, ramanujan_case2, monkeypatch):
    """``a`` and ``b`` are built over row chunks of at most ``GATHER_ELEMENTS``
    entries; a chunked GEMV may move the last ulp of ``b``, never the payload,
    which only moves if an acceptance test flips.  Random contexts at widths
    of one chunk (d = 7), of 6 rows with a 1-row tail (5001), of 2 rows
    (11274) and of one row wider than the budget."""
    assignment = ramanujan_case2.assignment
    rng = np.random.default_rng(np.dtype(dtype).itemsize)
    for d in (7, 5001, 11_274, GATHER_ELEMENTS + 3):
        for _ in range(4):
            scales = 10.0 ** rng.uniform(-3, 1, size=(assignment.num_files, 1))
            honest = rng.standard_normal((assignment.num_files, d)) * scales
            honest += rng.standard_normal(d)  # a shared mean, as gradients have
            byzantine = rng.choice(assignment.num_workers, size=int(rng.integers(1, 8)))
            context = attack_context(assignment, sorted(set(byzantine)), honest.astype(dtype))
            chunked = attack.payload(context)
            with monkeypatch.context() as patch:
                patch.setattr(adaptive, "_distance_coefficients", _unchunked_coefficients)
                whole = attack.payload(context)
            assert chunked.dtype == whole.dtype
            assert np.array_equal(chunked, whole), (d, context.byzantine_workers)


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
