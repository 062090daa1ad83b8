"""Copy-on-write replication property tests.

:meth:`VoteTensor.from_honest` builds the round as one shared ``(f, d)``
base plus per-(file, slot) payload rows instead of the ``(f, r, d)`` cube.
These tests pin the contract that makes that safe at the slot API: the
tensor reads **bit-identically** to a plain numpy cube put through the same
writes, its aggregate does not depend on how the cube is stored, the
``q = 0`` fast path never copies a single replica, and a stored payload row
is never written again (the store is read-only outside the slot API).  Whole
rounds — every attack and fault injector of the catalog on a cube built by
copying — are the reference round's (``test_reference_round.py``).
"""

import tracemalloc

import numpy as np
import pytest

from repro.aggregation import majority as majority_module
from repro.aggregation.majority import majority_vote_votetensor, override_content_ids
from repro.aggregation.mean import MeanAggregator
from repro.aggregation.median import CoordinateWiseMedian
from repro.assignment.baseline import BaselineAssignment
from repro.assignment.frc import FRCAssignment
from repro.assignment.mols import MOLSAssignment
from repro.assignment.ramanujan import RamanujanAssignment
from repro.attacks.registry import available_attacks, create_attack
from repro.core.pipelines import AggregationPipeline
from repro.core.vote_tensor import VoteTensor

from cow_helpers import LAYOUTS, attack_context, cube_of, stored_rows, tensor_of
from reference_round import byzantine_rows
from reference_vote import reference_vote

DIM = 7

SCHEMES = {
    "mols": lambda: MOLSAssignment(load=5, replication=3).assignment,
    "ramanujan": lambda: RamanujanAssignment(m=3, s=5).assignment,
    "frc": lambda: FRCAssignment(num_workers=15, replication=3).assignment,
    "baseline": lambda: BaselineAssignment(num_workers=10).assignment,
}


#: The paper's schemes, each as the one pipeline over its assignment and rule
PIPELINES = {
    "mols-byzshield": ("mols", CoordinateWiseMedian),
    "ramanujan-byzshield": ("ramanujan", CoordinateWiseMedian),
    "frc-detox": ("frc", CoordinateWiseMedian),
    "frc-draco": ("frc", MeanAggregator),
    "baseline-vanilla": ("baseline", CoordinateWiseMedian),
}


def pipeline_for(case):
    scheme, rule = PIPELINES[case]
    return AggregationPipeline(SCHEMES[scheme](), rule())


def make_pair(assignment, seed=0):
    """A tensor of an honest round and the plain ``(f, r, d)`` cube it stands for."""
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((assignment.num_files, DIM))
    tensor = VoteTensor.from_honest(assignment, matrix)
    cube = np.repeat(matrix[:, None, :], tensor.replication, axis=1)
    return tensor, cube, matrix


def assert_reads_as(tensor, cube):
    """The tensor's slots are the cube's, bit for bit."""
    assert cube_of(tensor).tobytes() == cube.tobytes()


# --------------------------------------------------------------------------- #
# q = 0 fast path: a clean round never copies a replica
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("case", sorted(PIPELINES))
def test_q0_round_never_materializes(case):
    pipeline = pipeline_for(case)
    lazy, cube, matrix = make_pair(pipeline.assignment)
    outcome = pipeline.aggregate_tensor(lazy)
    # a clean round's winners are the honest base itself, no row copied
    assert outcome.winners.files.size == 0
    assert np.shares_memory(outcome.winners.base, matrix)
    assert lazy.num_overridden_slots == stored_rows(lazy) == 0
    # the same cube stored the other way (slot 0 as the base) aggregates alike
    rebuilt = tensor_of(cube_of(lazy), pipeline.assignment)
    assert np.array_equal(outcome.aggregate, pipeline.aggregate_tensor(rebuilt).aggregate)
    assert_reads_as(lazy, cube)


def test_q0_attack_application_stays_lazy(mols_assignment):
    lazy, _, matrix = make_pair(mols_assignment)
    for name in available_attacks():
        attack = create_attack(name)
        context = attack_context(mols_assignment, (), matrix, 1)
        attack.apply_tensor(context, lazy)
    assert lazy.num_overridden_slots == stored_rows(lazy) == 0


# --------------------------------------------------------------------------- #
# Vectorized noise attacks vs the reference round's per-slot writer
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "attack_factory",
    [
        lambda: create_attack("gaussian_noise", sigma=2.5),
        lambda: create_attack("uniform_random", magnitude=4.0),
    ],
    ids=["gaussian", "uniform"],
)
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_vectorized_noise_attacks_match_the_reference(scheme, attack_factory):
    """The tensor's per-slot payloads are the reference round's: one row per
    (worker, file), workers in context order (not sorted), files in
    assignment order, and the round's stream is left where the reference
    leaves it."""
    assignment = SCHEMES[scheme]()
    byzantine = (min(6, assignment.num_workers - 1), 0, 2)
    lazy, cube, matrix = make_pair(assignment, seed=21)
    attack = attack_factory()
    lazy.mark_byzantine(byzantine)
    engine = attack_context(assignment, byzantine, matrix, 1, seed=23)
    attack.apply_tensor(engine, lazy)
    reference = attack_context(assignment, byzantine, matrix, 1, seed=23)
    for (i, k), row in byzantine_rows(attack, reference, lazy.workers, matrix, DIM).items():
        cube[i, k] = row
    assert_reads_as(lazy, cube)
    assert engine.rng.random() == reference.rng.random()


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
    lazy.write_slots(files, slots, lazy.read_slots(files, slots) + delta)
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
    assert selection.files.tolist() == [2] and selection.row_ids.tolist() == [0]
    assert np.shares_memory(selection.store, lazy._store)  # referenced, not copied
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


def test_kernel_matches_reference_on_random_tensors():
    rng = np.random.default_rng(42)
    for trial in range(150):
        f, r, d = rng.integers(1, 7), rng.integers(1, 7), rng.integers(1, 9)
        values = rng.integers(-2, 3, (f, r, d)).astype(np.float64)
        if trial % 2 == 0:  # plant replicated-copy structure
            values[:, 1:] = values[:, :1]
            for _ in range(rng.integers(0, 5)):
                i, a, b = rng.integers(f), rng.integers(r), rng.integers(r)
                values[i, a] = values[i, b] + rng.integers(0, 2)
        selection, counts, _, _ = majority_vote_votetensor(tensor_of(values))
        ref_w, ref_c = reference_vote(values)
        assert np.array_equal(selection.densified(), ref_w), trial
        assert counts.tolist() == ref_c.tolist(), trial


def test_kernel_survives_hash_collisions(monkeypatch):
    """Degenerate hash weights force every slot into one hash bucket; the
    verification step must detect it and fall back without changing results."""
    d = 5
    monkeypatch.setattr(majority_module, "_HASH_WEIGHTS", np.zeros(d, dtype=np.uint64))
    rng = np.random.default_rng(3)
    for _ in range(60):
        f, r = rng.integers(1, 6), rng.integers(2, 7)
        values = rng.integers(-1, 2, (f, r, d)).astype(np.float64)
        selection, counts, _, _ = majority_vote_votetensor(tensor_of(values))
        ref_w, ref_c = reference_vote(values)
        assert np.array_equal(selection.densified(), ref_w)
        assert counts.tolist() == ref_c.tolist()


def test_kernel_byte_equality_semantics():
    """NaN payloads with equal bits count as equal; -0.0 and +0.0 do not."""
    values = np.zeros((1, 3, 2))
    values[0, 0] = np.nan
    values[0, 1] = np.nan
    values[0, 2] = 1.0
    winners, counts, _, _ = majority_vote_votetensor(tensor_of(values))
    assert counts[0] == 2 and np.isnan(winners.densified()[0]).all()

    values = np.zeros((1, 3, 1))
    values[0, 0] = -0.0
    values[0, 1] = 0.0
    values[0, 2] = -0.0
    winners, counts, _, _ = majority_vote_votetensor(tensor_of(values))
    assert counts[0] == 2 and np.signbit(winners.densified()[0, 0])


def test_lazy_majority_survives_hash_collisions(monkeypatch, mols_assignment):
    """Degenerate hash weights throw every override into one bucket; the
    collision fallback must still match the reference vote bit-for-bit."""
    monkeypatch.setattr(majority_module, "_HASH_WEIGHTS", np.zeros(DIM, dtype=np.uint64))
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
    assert stored_rows(lazy) == 1
    _, _, row_ids, rows = lazy.override_table()
    assert row_ids.tolist() == [0, 0, 0, 0]
    assert rows.nbytes == DIM * 8 and not rows.flags.writeable
    assert_reads_as(lazy, cube)
    # a scalar fill is one row too; an (m, d) matrix is one row per slot
    lazy.zero_slots([5, 6], [0, 0])
    assert stored_rows(lazy) == 2
    lazy.write_slots([7, 8], [0, 0], np.ones((2, DIM)))
    assert stored_rows(lazy) == 4
    assert lazy.num_overridden_slots == 8


def test_first_shared_write_reserves_one_row_not_eight(mols_assignment):
    """One colluding payload is one stored row: the store grows to what is
    needed, with no floor — eight reserved rows were 5 MiB of untouched
    capacity a round at d = 94k."""
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
    assert stored_rows(lazy) == 1


def test_the_store_holds_exactly_the_rows_written(mols_assignment):
    """Every write grows the store to the rows it holds, no spare capacity:
    single rows, a shared payload, per-slot matrices and a rewrite."""
    rng = np.random.default_rng(12)
    lazy, cube, _ = make_pair(mols_assignment, seed=12)
    r = lazy.replication
    assert lazy._store.shape == (0, DIM) and stored_rows(lazy) == 0
    rows = rng.standard_normal((64, DIM))
    for k, row in enumerate(rows):
        lazy.write_slots([k // r], [k % r], row)
        cube[k // r, k % r] = row
        assert lazy._store.shape == (k + 1, DIM) and stored_rows(lazy) == k + 1
    assert_reads_as(lazy, cube)
    files, slots = np.divmod(np.arange(64), r)
    assert np.array_equal(lazy.read_slots(files, slots), rows)
    # a shared payload, a per-slot matrix, a read-modify-write, a shared zero
    three, two = (np.array([22, 23, 24]), np.array([0, 1, 2])), (np.array([23, 24]), np.array([1, 2]))
    writes = [
        (three, 1, lambda: lazy.write_slots(*three, rows[0]), lambda c: rows[0]),
        (two, 2, lambda: lazy.write_slots(*two, rows[:2]), lambda c: rows[:2]),
        (three, 3, lambda: lazy.scale_slots(*three, 2.0), lambda c: c * 2.0),
        (two, 1, lambda: lazy.zero_slots(*two), lambda c: 0.0),
    ]
    for touched, added, write, model in writes:
        held = stored_rows(lazy)
        table = lazy.override_table()[3]
        before = table.copy()
        write()
        cube[touched] = model(cube[touched])
        assert lazy._store.shape == (held + added, DIM)
        assert stored_rows(lazy) == held + added
        assert table.tobytes() == before.tobytes()  # a view of the old store keeps its bytes
    assert_reads_as(lazy, cube)


def add_to_slots(tensor, files, slots, rows):
    """Read-modify-write the way the noise corruption does it."""
    tensor.write_slots(files, slots, tensor.read_slots(files, slots) + rows)


#: each slot-API mutation: how it is applied, and what it does to the cube's rows
MUTATORS = {
    "write_slots": (lambda t, f, s: t.write_slots(f, s, np.full(DIM, 9.0)), lambda rows: 9.0),
    "read_add_write": (lambda t, f, s: add_to_slots(t, f, s, 0.25), lambda rows: rows + 0.25),
    "scale_slots": (lambda t, f, s: t.scale_slots(f, s, -3.0), lambda rows: rows * -3.0),
    "zero_slots": (lambda t, f, s: t.zero_slots(f, s), lambda rows: 0.0),
    "fill_slots": (
        lambda t, f, s: t.fill_slots(f, s, lambda row, into: np.copyto(into, row * 2.0 + 1.0)),
        lambda rows: rows * 2.0 + 1.0,
    ),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("mutator", sorted(MUTATORS))
def test_stored_rows_are_write_once(mols_assignment, mutator, layout, dtype):
    """The store is read-only outside the slot API's fills (``write_slots``,
    ``fill_slots``): a write through it raises, and what a caller took from
    it — the payload table, a selection of written slots, the vote's
    winners — keeps its bytes after a later write grows the store."""
    rng = np.random.default_rng(31)
    honest = rng.standard_normal((mols_assignment.num_files, DIM)).astype(dtype)
    cube = np.repeat(honest[:, None, :], 3, axis=1)
    cube[[0, 2, 2], [1, 0, 2]] = rng.standard_normal((3, DIM))
    cube[4, :2] = 5.0  # one colluding payload, out-voting file 4's honest copy
    tensor = tensor_of(cube, mols_assignment, base=honest, layout=layout)
    with pytest.raises(ValueError, match="read-only"):
        tensor._store[0] = 1.0
    capacity = tensor._store.shape[0]  # the store is full: every write grows it
    table = tensor.override_table()[3]
    selection = tensor.select_slots(np.ones(tensor.num_files, dtype=np.int64))
    outcome = AggregationPipeline(mols_assignment).aggregate_tensor(tensor)
    winners = outcome.winners
    before = [table.copy(), selection.densified().copy(), winners.densified().copy()]
    # file 2's two noise copies leave no class of r' = 2: it abstains, and
    # file 4 is the winners' row 3
    assert outcome.counts[2] == 0 and outcome.winner_refs[3, 0] == 4
    assert np.array_equal(before[1], cube[:, 1]) and np.all(before[2][3] == 5.0)

    files, slots = np.array([0, 4, 4]), np.array([1, 0, 1])
    mutate, model = MUTATORS[mutator]
    mutate(tensor, files, slots)
    cube[files, slots] = model(cube[files, slots])
    assert tensor._store.shape[0] > capacity
    assert_reads_as(tensor, cube)
    after = [table, selection.densified(), winners.densified()]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        tensor._store[:] = 0.0


@pytest.mark.parametrize("source", ["base", "store"])
def test_fill_slots_hands_its_callback_read_only_payloads(mols_assignment, source):
    """While ``fill_slots`` fills its fresh rows the store is writable, and
    so is the fresh row it hands ``fill``, but the payload it hands beside
    it is not — whether it lives in the store or the base — and the store
    is read-only again afterwards."""
    honest = np.random.default_rng(4).standard_normal((mols_assignment.num_files, DIM))
    tensor = VoteTensor.from_honest(mols_assignment, honest)
    tensor.write_slots([0], [0], np.full(DIM, 2.0))
    slot = 0 if source == "store" else 1

    def vandal(row, into):
        into[:] = row
        row[0] = 1.0

    with pytest.raises(ValueError, match="read-only"):
        tensor.fill_slots([0], [slot], vandal)
    with pytest.raises(ValueError, match="read-only"):
        tensor._store[0] = 1.0
    assert np.all(tensor.read_slots([0], [0]) == 2.0)
    assert np.array_equal(tensor.read_slots([0], [1])[0], honest[0])


@pytest.mark.parametrize("mutator", ["scale_slots", "read_add_write", "write_slots"])
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
    elif mutator == "read_add_write":
        add_to_slots(lazy, [2], [1], np.full(DIM, 0.25))
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
    assert stored_rows(lazy) == 3
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
    monkeypatch.setattr(majority_module, "_HASH_WEIGHTS", np.zeros(DIM, dtype=np.uint64))
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
