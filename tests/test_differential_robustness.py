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

from repro.attacks.base import AttackContext, byzantine_write_order
from repro.attacks.registry import available_attacks, create_attack
from repro.attacks.schedules import AdversarySchedule, ScheduledSelector
from repro.core.vote_tensor import VoteTensor
from repro.utils.rng import derive_seed

DIM = 8
ROUNDS = 4

# Every valid (selection, schedule) pairing: rotating selection and rotating
# schedules require each other (enforced both ways by ScheduledSelector).
COMBOS = [
    ("omniscient-static", "omniscient", AdversarySchedule(kind="static", q=3)),
    (
        "omniscient-ramping",
        "omniscient",
        AdversarySchedule(kind="ramping", q=0, q_end=4, period=1),
    ),
    ("random-static", "random", AdversarySchedule(kind="static", q=3)),
    (
        "random-ramping",
        "random",
        AdversarySchedule(kind="ramping", q=1, q_end=3, period=2),
    ),
    (
        "rotating-rotating",
        "rotating",
        AdversarySchedule(kind="rotating", q=3, period=1, stride=2),
    ),
]


def honest_matrix(assignment, seed=17):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((assignment.num_files, DIM))


def make_context(assignment, byzantine, honest, iteration=0, rng_seed=0):
    return AttackContext(
        assignment=assignment,
        byzantine_workers=tuple(int(w) for w in byzantine),
        honest_matrix=honest,
        iteration=iteration,
        rng=np.random.default_rng(rng_seed),
    )


def dense_from_honest(assignment, honest):
    replicated = np.repeat(honest[:, None, :], assignment.replication, axis=1)
    return VoteTensor(replicated.copy(), assignment.worker_slot_matrix())


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
    every_file = np.arange(assignment.num_files)
    for iteration in range(ROUNDS):
        round_seed = derive_seed(123, "diff", iteration)
        byzantine = selector.select(
            assignment, iteration, np.random.default_rng(round_seed)
        )
        lazy = VoteTensor.from_honest(assignment, honest)
        dense = dense_from_honest(assignment, honest)
        lazy.mark_byzantine(byzantine)
        dense.mark_byzantine(byzantine)
        attack = create_attack(attack_name)
        attack.apply_tensor(
            make_context(assignment, byzantine, honest, iteration, round_seed), lazy
        )
        create_attack(attack_name).apply_tensor(
            make_context(assignment, byzantine, honest, iteration, round_seed), dense
        )
        assert lazy.is_lazy, f"{attack_name} densified the lazy tensor"
        lazy_values = lazy.materialize_files(every_file)
        mask = lazy.byzantine_mask
        # Honest cells: bit-identical to the no-attack replication, both paths.
        assert np.array_equal(lazy_values[~mask], base[~mask])
        assert np.array_equal(dense.values[~mask], base[~mask])
        # And the two paths agree everywhere (Byzantine cells included).
        assert np.array_equal(lazy_values, dense.values)
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
        make_context(mols_assignment, (), honest), tensor
    )
    assert tensor.is_lazy
    assert tensor.num_overridden_slots == 0


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
        context = make_context(mols_assignment, byzantine, honest, rng_seed=99)
        create_attack(attack_name).apply_tensor(context, tensor)
        files, slots = byzantine_write_order(context, tensor)
        payloads.append(tensor.read_slots(files, slots))
    assert payloads[0].shape == payloads[1].shape
    assert np.array_equal(payloads[0], payloads[1])


@pytest.mark.parametrize("attack_name", STOCHASTIC)
def test_stochastic_stream_consumption_matches_dict_path(
    mols_assignment, attack_name
):
    # The reference is one scalar (d,) draw per (worker, file) key: the
    # stacked (m, d) draw must hand slot j of byzantine_write_order (worker,
    # then file) the j-th successive draw of the round's stream, and leave
    # the generator right after the m-th.
    honest = honest_matrix(mols_assignment)
    byzantine = (9, 0, 5)  # context order, not sorted order
    tensor = VoteTensor.from_honest(mols_assignment, honest)
    tensor.mark_byzantine(byzantine)
    context = make_context(mols_assignment, byzantine, honest, rng_seed=7)
    attack = create_attack(attack_name)
    attack.apply_tensor(context, tensor)
    scalar = np.random.default_rng(7)
    for worker in byzantine:
        for file in mols_assignment.files_of_worker(worker):
            if attack_name == "gaussian_noise":
                expected = scalar.standard_normal(DIM) * attack.sigma
            else:
                expected = scalar.uniform(-attack.magnitude, attack.magnitude, size=DIM)
            slot = tensor.slot_of(file, worker)
            got = tensor.read_slots([file], [slot])[0]
            assert np.array_equal(got, expected), (worker, file)
    assert np.array_equal(
        context.rng.standard_normal(4), scalar.standard_normal(4)
    )


@pytest.mark.parametrize("attack_name", DETERMINISTIC)
def test_deterministic_attacks_never_touch_rng(mols_assignment, attack_name):
    honest = honest_matrix(mols_assignment)
    byzantine = (0, 5, 9)
    tensor = VoteTensor.from_honest(mols_assignment, honest)
    tensor.mark_byzantine(byzantine)
    context = make_context(mols_assignment, byzantine, honest, rng_seed=31)
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
        worker = int(mols_assignment.workers_of_file(file)[0])
        touched.set_vote(file, worker, honest[file].copy())
    assert touched.num_overridden_slots == 3
    fresh.mark_byzantine(byzantine)
    touched.mark_byzantine(byzantine)
    create_attack(attack_name).apply_tensor(
        make_context(mols_assignment, byzantine, honest, rng_seed=5), fresh
    )
    create_attack(attack_name).apply_tensor(
        make_context(mols_assignment, byzantine, honest, rng_seed=5), touched
    )
    every_file = np.arange(mols_assignment.num_files)
    assert np.array_equal(
        fresh.materialize_files(every_file), touched.materialize_files(every_file)
    )
