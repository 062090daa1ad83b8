"""Differential robustness harness.

The load-bearing invariant of the whole attack layer: an attack may only
ever touch Byzantine ``(file, slot)`` cells.  For every registered attack
crossed with every valid ``(selection, schedule)`` pairing, over several
rounds, the honest cells of the vote tensor must stay bit-identical to a
no-attack run — on both the lazy copy-on-write path and the dense path —
and the lazy tensor must never densify.

The second family of properties pins RNG hygiene: an attack's random draws
are a pure function of ``(seed, round, shape)``.  They must not depend on
*which* workers are compromised (only how many cells they write), nor on
whether the tensor already carries overrides from earlier writers.
"""

import numpy as np
import pytest

from repro.attacks.base import byzantine_write_order
from repro.attacks.registry import available_attacks, create_attack
from repro.attacks.schedules import ScheduledSelector
from repro.core.vote_tensor import VoteTensor
from repro.scenarios.spec import ScheduleSpec
from repro.utils.rng import derive_seed

from cow_helpers import attack_context, cube_of, stored_rows

DIM = 8
ROUNDS = 4

# Every valid (selection, schedule) pairing: rotating selection and rotating
# schedules require each other (refused both ways by ScenarioRunner.check).
COMBOS = [
    ("omniscient-static", "omniscient", ScheduleSpec(kind="static", q=3)),
    (
        "omniscient-ramping",
        "omniscient",
        ScheduleSpec(kind="ramping", q=0, q_end=4, period=1),
    ),
    ("random-static", "random", ScheduleSpec(kind="static", q=3)),
    (
        "random-ramping",
        "random",
        ScheduleSpec(kind="ramping", q=1, q_end=3, period=2),
    ),
    (
        "rotating-rotating",
        "rotating",
        ScheduleSpec(kind="rotating", q=3, period=1, stride=2),
    ),
]


def honest_matrix(assignment, seed=17):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((assignment.num_files, DIM))


@pytest.mark.parametrize("attack_name", available_attacks())
@pytest.mark.parametrize(
    "selection,schedule",
    [(sel, sched) for _, sel, sched in COMBOS],
    ids=[label for label, _, _ in COMBOS],
)
def test_honest_cells_survive_every_attack(
    mols_assignment, attack_name, selection, schedule
):
    assignment = mols_assignment
    honest = honest_matrix(assignment)
    base = np.repeat(honest[:, None, :], assignment.replication, axis=1)
    selector = ScheduledSelector(schedule, selection=selection)
    for iteration in range(ROUNDS):
        round_seed = derive_seed(123, "diff", iteration)
        byzantine = selector.select(
            assignment, iteration, np.random.default_rng(round_seed)
        )
        lazy = VoteTensor.from_honest(assignment, honest)
        lazy.mark_byzantine(byzantine)
        create_attack(attack_name).apply_tensor(
            attack_context(assignment, byzantine, honest, iteration, round_seed), lazy
        )
        mask = lazy.byzantine_mask
        # Honest cells: bit-identical to the no-attack replication.
        assert np.array_equal(cube_of(lazy)[~mask], base[~mask])
        if len(byzantine):
            expected_overrides = sum(
                len(assignment.files_of_worker(w)) for w in byzantine
            )
            assert lazy.num_overridden_slots == expected_overrides


@pytest.mark.parametrize("attack_name", available_attacks())
def test_schedule_q_zero_rounds_write_nothing(mols_assignment, attack_name):
    # The ramping combo starts at q=0; an attack must be a strict no-op there.
    honest = honest_matrix(mols_assignment)
    tensor = VoteTensor.from_honest(mols_assignment, honest)
    create_attack(attack_name).apply_tensor(
        attack_context(mols_assignment, (), honest), tensor
    )
    assert tensor.num_overridden_slots == stored_rows(tensor) == 0


STOCHASTIC = ["gaussian_noise", "uniform_random"]
DETERMINISTIC = [n for n in available_attacks() if n not in STOCHASTIC]


@pytest.mark.parametrize("attack_name", STOCHASTIC)
def test_stochastic_draws_independent_of_byzantine_layout(
    mols_assignment, attack_name
):
    # Two disjoint compromised sets of the same size, same round generator:
    # the stacked payload (write order) must be bit-identical, because the
    # draw is a pure function of (seed, shape) — never of worker identity.
    honest = honest_matrix(mols_assignment)
    payloads = []
    for byzantine in ((0, 1, 2), (4, 7, 11)):
        tensor = VoteTensor.from_honest(mols_assignment, honest)
        tensor.mark_byzantine(byzantine)
        context = attack_context(mols_assignment, byzantine, honest, seed=99)
        create_attack(attack_name).apply_tensor(context, tensor)
        files, slots = byzantine_write_order(context, tensor)
        payloads.append(tensor.read_slots(files, slots))
    assert payloads[0].shape == payloads[1].shape
    assert np.array_equal(payloads[0], payloads[1])


@pytest.mark.parametrize("attack_name", DETERMINISTIC)
def test_deterministic_attacks_never_touch_rng(mols_assignment, attack_name):
    honest = honest_matrix(mols_assignment)
    byzantine = (0, 5, 9)
    tensor = VoteTensor.from_honest(mols_assignment, honest)
    tensor.mark_byzantine(byzantine)
    context = attack_context(mols_assignment, byzantine, honest, seed=31)
    create_attack(attack_name).apply_tensor(context, tensor)
    untouched = np.random.default_rng(31)
    assert np.array_equal(
        context.rng.standard_normal(4), untouched.standard_normal(4)
    )


@pytest.mark.parametrize("attack_name", available_attacks())
def test_payloads_unaffected_by_preexisting_overrides(
    mols_assignment, attack_name
):
    # Overrides written before the attack runs (as cluster-fault injection
    # does) must not change what the attack writes.  Seeding the tensor with
    # copies of the honest values keeps the expected result identical while
    # still exercising a non-empty override store.
    honest = honest_matrix(mols_assignment)
    byzantine = (2, 6, 13)
    fresh = VoteTensor.from_honest(mols_assignment, honest)
    touched = VoteTensor.from_honest(mols_assignment, honest)
    for file in (0, 1, 2):
        touched.write_slots([file], [0], honest[file].copy())
    assert touched.num_overridden_slots == 3
    fresh.mark_byzantine(byzantine)
    touched.mark_byzantine(byzantine)
    create_attack(attack_name).apply_tensor(
        attack_context(mols_assignment, byzantine, honest, seed=5), fresh
    )
    create_attack(attack_name).apply_tensor(
        attack_context(mols_assignment, byzantine, honest, seed=5), touched
    )
    assert np.array_equal(cube_of(fresh), cube_of(touched))
