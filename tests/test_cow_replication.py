"""Copy-on-write replication property tests.

:meth:`VoteTensor.from_honest` builds the round as one shared ``(f, d)``
base plus per-(file, slot) payload rows instead of the ``(f, r, d)`` cube.
These tests pin the contract that makes that safe: for every pipeline,
registered attack and fault injector, the tensor reads **bit-identically**
to a plain numpy cube put through the same writes, its aggregate does not
depend on how the cube is stored, the ``q = 0`` fast path never copies
a single replica, and a stored payload row is never written again (the
store is read-only outside the slot API).
"""

import tracemalloc

import numpy as np
import pytest

from repro.aggregation import majority as majority_module
from repro.aggregation.majority import majority_vote_votetensor, override_content_ids
from repro.aggregation.median import CoordinateWiseMedian
from repro.assignment.baseline import BaselineAssignment
from repro.assignment.frc import FRCAssignment
from repro.assignment.mols import MOLSAssignment
from repro.assignment.ramanujan import RamanujanAssignment
from repro.attacks.base import AttackContext
from repro.attacks.registry import available_attacks, create_attack
from repro.cluster.faults import (
    DropoutInjector,
    FaultContext,
    MessageCorruptionInjector,
    StragglerInjector,
)
from repro.core.pipelines import (
    ByzShieldPipeline,
    DetoxPipeline,
    DracoPipeline,
    VanillaPipeline,
)
from repro.core.vote_tensor import VoteTensor

from cow_helpers import LAYOUTS, cube_of, tensor_of

DIM = 7

SCHEMES = {
    "mols": lambda: MOLSAssignment(load=5, replication=3).assignment,
    "ramanujan": lambda: RamanujanAssignment(m=3, s=5).assignment,
    "frc": lambda: FRCAssignment(num_workers=15, replication=3).assignment,
    "baseline": lambda: BaselineAssignment(num_workers=10).assignment,
}


def pipelines_for(name, assignment):
    if name in ("mols", "ramanujan"):
        return [ByzShieldPipeline(assignment)]
    if name == "frc":
        return [
            DetoxPipeline(assignment),
            DracoPipeline(assignment, num_byzantine=1),
        ]
    return [VanillaPipeline(assignment, aggregator=CoordinateWiseMedian())]


def honest_matrix_for(assignment, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((assignment.num_files, DIM))


def make_pair(assignment, seed=0):
    """A tensor of an honest round and the plain ``(f, r, d)`` cube it stands for."""
    matrix = honest_matrix_for(assignment, seed)
    tensor = VoteTensor.from_honest(assignment, matrix)
    cube = np.repeat(matrix[:, None, :], tensor.replication, axis=1)
    return tensor, cube, matrix


def make_context(assignment, matrix, byzantine, seed=0):
    return AttackContext(
        assignment=assignment,
        byzantine_workers=tuple(byzantine),
        honest_matrix=matrix,
        iteration=1,
        rng=np.random.default_rng(seed),
    )


def assert_reads_as(tensor, cube):
    """The tensor's slots are the cube's, bit for bit."""
    assert cube_of(tensor).tobytes() == cube.tobytes()


def reference_vote(cube):
    """Per-file reference vote: ``(f, d)`` winners and ``(f,)`` counts."""
    votes = [majority_module._reference_exact_majority(copies) for copies in cube]
    return np.vstack([w for w, _ in votes]), np.array([c for _, c in votes])


def assert_layout_free(tensor, pipelines):
    """Every pipeline aggregates the tensor exactly as the same cube stored
    the other way — slot 0 as the base, every other differing slot its own row."""
    rebuilt = tensor_of(cube_of(tensor), pipelines[0].assignment)
    for pipeline in pipelines:
        assert np.array_equal(
            pipeline.aggregate_tensor(tensor).aggregate,
            pipeline.aggregate_tensor(rebuilt).aggregate,
        ), pipeline.pipeline_name


# --------------------------------------------------------------------------- #
# q = 0 fast path: a clean round never copies a replica
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_q0_round_never_materializes(scheme):
    assignment = SCHEMES[scheme]()
    lazy, cube, matrix = make_pair(assignment)
    pipelines = pipelines_for(scheme, assignment)
    for pipeline in pipelines:
        outcome = pipeline.aggregate_tensor(lazy)
        # a clean round's winners are the honest base itself, no row copied
        assert outcome.winners.files.size == 0
        assert np.shares_memory(outcome.winners.base, matrix)
    assert lazy.num_overridden_slots == lazy.num_override_rows == 0
    assert_layout_free(lazy, pipelines)
    assert_reads_as(lazy, cube)


def test_q0_attack_application_stays_lazy(mols_assignment):
    lazy, _, matrix = make_pair(mols_assignment)
    for name in available_attacks():
        attack = create_attack(name)
        context = make_context(mols_assignment, matrix, byzantine=())
        attack.apply_tensor(context, lazy)
    assert lazy.num_overridden_slots == lazy.num_override_rows == 0


# --------------------------------------------------------------------------- #
# COW vs materialized: every registered attack, every scheme
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("attack_name", available_attacks())
def test_cow_matches_materialized_under_attack(scheme, attack_name):
    assignment = SCHEMES[scheme]()
    lazy, cube, matrix = make_pair(assignment, seed=3)
    byzantine = (0, min(5, assignment.num_workers - 1))
    lazy.mark_byzantine(byzantine)
    create_attack(attack_name).apply_tensor(
        make_context(assignment, matrix, byzantine, seed=11), lazy
    )
    # the attack wrote the Byzantine slots and nothing else
    written = cube_of(lazy)
    honest = ~lazy.byzantine_mask
    assert written[honest].tobytes() == cube[honest].tobytes()
    assert lazy.num_overridden_slots == int(lazy.byzantine_mask.sum())
    assert_layout_free(lazy, pipelines_for(scheme, assignment))


# --------------------------------------------------------------------------- #
# COW vs materialized: fault injectors
# --------------------------------------------------------------------------- #
INJECTORS = {
    "straggler_timeout": lambda: StragglerInjector(
        count=4, delay_model="exponential", delay=2.0, timeout=1.0
    ),
    "dropout": lambda: DropoutInjector(probability=0.4, down_for=2),
    "corruption_zero": lambda: MessageCorruptionInjector(probability=0.3, mode="zero"),
    "corruption_scale": lambda: MessageCorruptionInjector(
        probability=0.3, mode="scale", factor=5.0
    ),
    "corruption_noise": lambda: MessageCorruptionInjector(
        probability=0.3, mode="noise", factor=2.0
    ),
}


def apply_events(cube, workers, injector, events, seed):
    """The numpy model of one injection: ``events`` applied to a plain cube.

    A dropped worker's every slot is zero; a corrupted message is zeroed,
    scaled, or gets the noise rows the injector drew after its hit mask
    (replayed from ``seed``)."""
    cube = cube.copy()
    corrupted = []
    for event in events:
        if event.kind == "corruption":
            corrupted.append((event.file, int(np.searchsorted(workers[event.file], event.worker))))
        elif event.dropped:
            cube[workers == event.worker] = 0.0
    if corrupted:
        files, slots = np.array(corrupted).T
        if injector.mode == "zero":
            cube[files, slots] = 0.0
        elif injector.mode == "scale":
            cube[files, slots] *= injector.factor
        else:
            rng = np.random.default_rng(seed)
            rng.random(workers.shape)
            cube[files, slots] += rng.standard_normal((files.size, cube.shape[2])) * injector.factor
    return cube


def inject(tensor, cube, assignment, injector_name, seed, iteration=2):
    """Run one injector on the tensor; return the cube model after it."""
    injector = INJECTORS[injector_name]()
    context = FaultContext(
        assignment=assignment, iteration=iteration, rng=np.random.default_rng(seed)
    )
    events = injector.inject(tensor, context)
    return apply_events(cube, tensor.workers, injector, events, seed), events


@pytest.mark.parametrize("injector_name", sorted(INJECTORS))
def test_cow_matches_materialized_under_faults(mols_assignment, injector_name):
    lazy, cube, _ = make_pair(mols_assignment, seed=5)
    cube, events = inject(lazy, cube, mols_assignment, injector_name, seed=7)
    assert events
    assert_reads_as(lazy, cube)


def test_cow_matches_materialized_attack_then_faults(mols_assignment):
    """The full hot-path sequence: attack writes, then every injector."""
    lazy, _, matrix = make_pair(mols_assignment, seed=9)
    byzantine = (1, 4, 8)
    lazy.mark_byzantine(byzantine)
    create_attack("gaussian_noise", sigma=3.0).apply_tensor(
        context=make_context(mols_assignment, matrix, byzantine, seed=13), tensor=lazy
    )
    cube = cube_of(lazy)
    for injector_name in sorted(INJECTORS):
        cube, _ = inject(lazy, cube, mols_assignment, injector_name, seed=17, iteration=0)
    assert_reads_as(lazy, cube)
    assert_layout_free(lazy, [ByzShieldPipeline(mols_assignment)])


# --------------------------------------------------------------------------- #
# Vectorized noise attacks vs a per-slot scalar writer
# --------------------------------------------------------------------------- #
def scalar_adapter(attack, context, cube):
    """Per-slot reference writer: one ``(d,)`` draw and one cube write per
    (worker, file), workers in context order, files in assignment order."""
    for worker in context.byzantine_workers:
        for file in context.assignment.files_of_worker(worker):
            if attack.attack_name == "uniform_random":
                vector = context.rng.uniform(
                    -attack.magnitude, attack.magnitude, size=cube.shape[2]
                )
            else:
                vector = context.rng.standard_normal(cube.shape[2]) * attack.sigma
                if attack.around_true_gradient:
                    vector = vector + context.honest_matrix[file]
            slot = context.assignment.workers_of_file(file).index(worker)
            cube[file, slot] = vector


@pytest.mark.parametrize(
    "attack_factory",
    [
        lambda: create_attack("gaussian_noise", sigma=2.5),
        lambda: create_attack("gaussian_noise", sigma=1.0, around_true_gradient=True),
        lambda: create_attack("uniform_random", magnitude=4.0),
    ],
    ids=["gaussian", "gaussian_around_true", "uniform"],
)
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_vectorized_noise_attacks_match_adapter(scheme, attack_factory):
    """One stacked (m, d) draw must consume the RNG stream exactly as the
    scalar adapter's m successive (d,) draws do — bit-identical payloads."""
    assignment = SCHEMES[scheme]()
    byzantine = (0, 2, min(6, assignment.num_workers - 1))
    lazy, cube, matrix = make_pair(assignment, seed=21)
    attack = attack_factory()
    lazy.mark_byzantine(byzantine)
    # vectorized write on the tensor
    attack.apply_tensor(make_context(assignment, matrix, byzantine, seed=23), lazy)
    # per-slot scalar draws on the plain cube
    scalar_adapter(attack, make_context(assignment, matrix, byzantine, seed=23), cube)
    assert_reads_as(lazy, cube)


# --------------------------------------------------------------------------- #
# Slot-API unit tests
# --------------------------------------------------------------------------- #
def test_write_and_read_slots_broadcast(mols_assignment):
    lazy, cube, _ = make_pair(mols_assignment, seed=1)
    files = np.array([0, 3, 3], dtype=np.int64)
    slots = np.array([1, 0, 2], dtype=np.int64)
    payload = np.arange(3 * DIM, dtype=np.float64).reshape(3, DIM)
    lazy.write_slots(files, slots, payload)  # (m, d) rows
    lazy.write_slots([5], [1], 2.5)  # scalar fill
    lazy.write_slots([6], [2], np.full(DIM, -1.0))  # (d,) vector
    cube[files, slots] = payload
    cube[5, 1] = 2.5
    cube[6, 2] = -1.0
    assert np.array_equal(lazy.read_slots(files, slots), payload)
    assert np.all(lazy.read_slots([5], [1]) == 2.5)
    assert lazy.num_overridden_slots == 5
    assert_reads_as(lazy, cube)


def test_add_scale_zero_slots(mols_assignment):
    lazy, cube, matrix = make_pair(mols_assignment, seed=2)
    files = np.array([1, 2, 4], dtype=np.int64)
    slots = np.array([0, 1, 2], dtype=np.int64)
    delta = np.random.default_rng(3).standard_normal((3, DIM))
    lazy.add_to_slots(files, slots, delta)
    lazy.scale_slots(files[:2], slots[:2], 0.5)
    lazy.zero_slots(files[2:], slots[2:])
    cube[files, slots] += delta
    cube[files[:2], slots[:2]] *= 0.5
    cube[files[2:], slots[2:]] = 0.0
    assert_reads_as(lazy, cube)
    # untouched replicas of a touched file still read the honest row
    untouched_slot = 2 if 2 != slots[0] else 1
    assert np.array_equal(lazy.read_slots([1], [untouched_slot])[0], matrix[1])


def test_selected_untouched_column_is_the_shared_readonly_base(mols_assignment):
    lazy, _, matrix = make_pair(mols_assignment)
    column = np.zeros(lazy.num_files, dtype=np.int64)
    rows = lazy.select_slots(column).densified()
    assert np.shares_memory(rows, matrix)
    assert not rows.flags.writeable
    # touching a slot in column 0 patches that one row
    lazy.write_slots([2], [0], 9.0)
    selection = lazy.select_slots(column)
    assert selection.files.tolist() == [2] and selection.rows.shape == (1, DIM)
    patched = selection.densified()
    assert not np.shares_memory(patched, matrix)  # a copy now, not the shared base
    assert np.all(patched[2] == 9.0)
    assert np.array_equal(patched[0], matrix[0])


def test_base_rows_is_a_read_only_view_of_the_honest_matrix(mols_assignment):
    lazy, _, matrix = make_pair(mols_assignment)
    base = lazy.base_rows()
    assert np.array_equal(base, matrix) and np.shares_memory(base, matrix)
    with pytest.raises(ValueError):
        base[0, 0] = 1.0
    lazy.write_slots([0], [0], 5.0)
    assert np.array_equal(lazy.base_rows(), matrix)  # writes never touch the base


def test_float32_round_stays_float32_through_cow(mols_assignment):
    matrix = (
        np.random.default_rng(0)
        .standard_normal((mols_assignment.num_files, DIM))
        .astype(np.float32)
    )
    lazy = VoteTensor.from_honest(mols_assignment, matrix)
    assert lazy.dtype == np.float32
    lazy.write_slots([1], [0], 2.0)
    assert lazy.read_slots([1], [0]).dtype == np.float32
    assert cube_of(lazy).dtype == np.float32


def test_lazy_majority_survives_hash_collisions(monkeypatch, mols_assignment):
    """Degenerate hash weights throw every override into one bucket; the
    collision fallback must still match the reference vote bit-for-bit."""
    monkeypatch.setitem(
        majority_module._HASH_WEIGHTS, DIM, np.zeros(DIM, dtype=np.uint64)
    )
    f = mols_assignment.num_files
    rng = np.random.default_rng(11)
    for _ in range(40):
        lazy, _, _ = make_pair(mols_assignment, seed=int(rng.integers(1 << 30)))
        for _ in range(int(rng.integers(0, 2 * f))):
            i, k = int(rng.integers(f)), int(rng.integers(3))
            payload = float(rng.integers(-1, 2))  # small alphabet: real dupes
            lazy.write_slots([i], [k], payload)
        dw, dc = reference_vote(cube_of(lazy))
        lw, lc, _, _ = majority_vote_votetensor(lazy)
        np.testing.assert_array_equal(lw.densified(), dw)
        np.testing.assert_array_equal(lc, dc)


# --------------------------------------------------------------------------- #
# Payload table: shared rows, the aliasing rule, content classes
# --------------------------------------------------------------------------- #
def test_shared_payload_allocates_one_row(mols_assignment):
    lazy, cube, _ = make_pair(mols_assignment, seed=4)
    files = np.array([0, 3, 3, 9], dtype=np.int64)
    slots = np.array([1, 0, 2, 1], dtype=np.int64)
    payload = np.arange(DIM, dtype=np.float64)
    lazy.write_slots(files, slots, payload)
    cube[files, slots] = payload
    assert lazy.num_overridden_slots == 4  # slots, not rows
    assert lazy.num_override_rows == 1
    _, _, row_ids, rows = lazy.override_table()
    assert row_ids.tolist() == [0, 0, 0, 0]
    assert rows.nbytes == DIM * 8 and not rows.flags.writeable
    assert_reads_as(lazy, cube)
    # a scalar fill is one row too; an (m, d) matrix is one row per slot
    lazy.zero_slots([5, 6], [0, 0])
    assert lazy.num_override_rows == 2
    lazy.write_slots([7, 8], [0, 0], np.ones((2, DIM)))
    assert lazy.num_override_rows == 4
    assert lazy.num_overridden_slots == 8


def test_first_shared_write_reserves_one_row_not_eight(mols_assignment):
    """One colluding payload is one stored row: the store grows to what is
    needed or to twice what it had, with no floor — eight reserved rows were
    5 MiB of untouched capacity a round at d = 94k."""
    dim = 100_000
    base = np.zeros((mols_assignment.num_files, dim))
    lazy = VoteTensor.from_honest(mols_assignment, base)
    payload = np.ones(dim)
    tracemalloc.start()
    try:
        lazy.write_slots([0, 3, 9], [1, 0, 1], payload)
        allocated = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert allocated < 2 * dim * 8
    assert lazy.num_override_rows == 1


def test_successive_single_writes_grow_the_store_geometrically(mols_assignment):
    rng = np.random.default_rng(12)
    lazy, cube, _ = make_pair(mols_assignment, seed=12)
    r = lazy.replication
    capacities = set()
    rows = rng.standard_normal((64, DIM))
    for k, row in enumerate(rows):
        lazy.write_slots([k // r], [k % r], row)
        cube[k // r, k % r] = row
        capacities.add(lazy._store.shape[0])
    assert capacities == {1, 2, 4, 8, 16, 32, 64}  # one reallocation per doubling
    assert lazy.num_override_rows == 64
    assert_reads_as(lazy, cube)
    files, slots = np.divmod(np.arange(64), r)
    assert np.array_equal(lazy.read_slots(files, slots), rows)


#: each slot-API mutator: its extra arguments, and what it does to the cube's rows
MUTATORS = {
    "write_slots": ((np.full(DIM, 9.0),), lambda rows: 9.0),
    "add_to_slots": ((0.25,), lambda rows: rows + 0.25),
    "scale_slots": ((-3.0,), lambda rows: rows * -3.0),
    "zero_slots": ((), lambda rows: 0.0),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("mutator", sorted(MUTATORS))
def test_stored_rows_are_write_once(mols_assignment, mutator, layout, dtype):
    """The store is read-only outside ``write_slots``: a write through it
    raises, and what a caller took from it — the payload table, a selection
    of written slots, the vote's winners — keeps its bytes after a later
    write grows the store."""
    rng = np.random.default_rng(31)
    honest = rng.standard_normal((mols_assignment.num_files, DIM)).astype(dtype)
    cube = np.repeat(honest[:, None, :], 3, axis=1)
    cube[[0, 2, 2], [1, 0, 2]] = rng.standard_normal((3, DIM))
    cube[4, :2] = 5.0  # one colluding payload, out-voting file 4's honest copy
    tensor = tensor_of(cube, mols_assignment, base=honest, layout=layout)
    with pytest.raises(ValueError, match="read-only"):
        tensor._store[0] = 1.0
    while tensor.num_override_rows < tensor._store.shape[0]:  # the next write must grow it
        tensor.write_slots([1], [1], 3.0)
        cube[1, 1] = 3.0
    capacity = tensor._store.shape[0]
    table = tensor.override_table()[3]
    selection = tensor.select_slots(np.ones(tensor.num_files, dtype=np.int64))
    winners = ByzShieldPipeline(mols_assignment).aggregate_tensor(tensor).winners
    before = [table.copy(), selection.densified().copy(), winners.densified().copy()]
    assert np.array_equal(before[1], cube[:, 1]) and np.all(before[2][4] == 5.0)

    files, slots = np.array([0, 4, 4]), np.array([1, 0, 1])
    args, model = MUTATORS[mutator]
    getattr(tensor, mutator)(files, slots, *args)
    cube[files, slots] = model(cube[files, slots])
    assert tensor._store.shape[0] > capacity
    assert_reads_as(tensor, cube)
    after = [table, selection.densified(), winners.densified()]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        tensor._store[:] = 0.0


@pytest.mark.parametrize("mutator", ["scale_slots", "add_to_slots", "write_slots"])
def test_mutating_one_shared_slot_leaves_the_others_untouched(mols_assignment, mutator):
    """The CorruptionInjector path after a colluding attack: one of m slots
    sharing a stored row is rewritten; the other m - 1 must not change."""
    lazy, cube, _ = make_pair(mols_assignment, seed=6)
    files = np.array([1, 2, 4, 4], dtype=np.int64)
    slots = np.array([0, 1, 0, 2], dtype=np.int64)
    payload = np.random.default_rng(8).standard_normal(DIM)
    lazy.write_slots(files, slots, payload)
    cube[files, slots] = payload
    if mutator == "scale_slots":
        lazy.scale_slots([2], [1], -3.0)
        cube[2, 1] *= -3.0
    elif mutator == "add_to_slots":
        lazy.add_to_slots([2], [1], np.full(DIM, 0.25))
        cube[2, 1] += 0.25
    else:
        lazy.write_slots([2], [1], np.full(DIM, 9.0))
        cube[2, 1] = 9.0
    others = lazy.read_slots(files[[0, 2, 3]], slots[[0, 2, 3]])
    assert all(np.array_equal(row, payload) for row in others)
    assert not np.array_equal(lazy.read_slots([2], [1])[0], payload)
    assert_reads_as(lazy, cube)


def test_block_reads_gather_each_row_from_where_it_lives(mols_assignment):
    lazy, cube, _ = make_pair(mols_assignment, seed=9)
    lazy.write_slots([2, 5], [0, 1], np.full(DIM, 4.0))
    lazy.write_slots([5], [2], np.arange(DIM, dtype=np.float64))
    cube[[2, 5], [0, 1]] = 4.0
    cube[5, 2] = np.arange(DIM)
    files = np.array([5, 2, 5, 0, 2, 5], dtype=np.int64)  # base and store mixed
    slots = np.array([2, 0, 1, 1, 2, 0], dtype=np.int64)
    for sel in (slice(None), slice(0, 2), slice(3, 4)):  # mixed / all store / all base
        got = lazy.read_slots(files[sel], slots[sel])
        assert np.array_equal(got, cube[files[sel], slots[sel]])
        assert got.flags.writeable and not np.shares_memory(got, lazy.base_rows())


def test_separately_written_equal_rows_land_in_one_class(mols_assignment):
    lazy, _, matrix = make_pair(mols_assignment, seed=12)
    lazy.zero_slots([3], [0])
    lazy.zero_slots([3], [2])  # a second, separately stored all-zero row
    lazy.write_slots([6], [1], matrix[6])  # an override equal to its base
    assert lazy.num_override_rows == 3
    cid = override_content_ids(lazy)
    assert cid[3, 0] == cid[3, 2] != 0
    assert cid[3, 1] == 0 and not cid[6].any()
    assert np.count_nonzero(cid) == 2
    winners, counts, _, _ = majority_vote_votetensor(lazy)
    winners = winners.densified()
    assert counts[3] == 2 and not winners[3].any()
    assert counts[6] == 3 and np.array_equal(winners[6], matrix[6])


@pytest.mark.parametrize("block_size", [None, 3])
def test_forced_hash_collision_with_shared_and_distinct_rows(
    monkeypatch, mols_assignment, block_size
):
    """All hashes equal: rows sharing storage, distinct rows with equal bytes
    and distinct rows with different bytes must still be classed exactly."""
    monkeypatch.setitem(majority_module._HASH_WEIGHTS, DIM, np.zeros(DIM, dtype=np.uint64))
    lazy, _, _ = make_pair(mols_assignment, seed=13)
    a, b = np.full(DIM, 1.5), np.full(DIM, -2.5)
    lazy.write_slots([0, 0, 1], [0, 1, 0], a)  # one shared row, colliding slots share it
    lazy.write_slots([1], [1], a.copy())  # same bytes, its own row
    lazy.write_slots([0, 2], [2, 0], b)  # different bytes, same (forced) hash
    lazy.write_slots([2], [1], b + 1.0)
    cid = override_content_ids(lazy, block_size)
    assert cid[0, 0] == cid[0, 1] == cid[1, 0] == cid[1, 1] != 0
    assert cid[0, 2] == cid[2, 0] != 0
    assert len({int(cid[0, 0]), int(cid[0, 2]), int(cid[2, 1]), 0}) == 4
    dw, dc = reference_vote(cube_of(lazy))
    lw, lc, _, _ = majority_vote_votetensor(lazy, block_size=block_size)
    lw = lw.densified()
    np.testing.assert_array_equal(lw, dw)
    np.testing.assert_array_equal(lc, dc)
    assert lc[0] == 2 and np.array_equal(lw[0], a)
