"""Copy-on-write replication property tests.

:meth:`VoteTensor.from_honest` builds a *lazy* tensor — one shared ``(f, d)``
base plus per-(file, slot) overrides — instead of materializing the dense
``(f, r, d)`` cube.  These tests pin the contract that makes that safe: for
every pipeline, registered attack and fault injector, the lazy tensor is
**bit-identical** to a fully materialized one, and the ``q = 0`` fast path
never copies a single replica.
"""

import tracemalloc

import numpy as np
import pytest

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
from repro.exceptions import ConfigurationError

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
    """(lazy, dense) tensors of the same honest round."""
    matrix = honest_matrix_for(assignment, seed)
    lazy = VoteTensor.from_honest(assignment, matrix)
    r = assignment.worker_slot_matrix().shape[1]
    dense = VoteTensor(
        np.repeat(matrix[:, None, :], r, axis=1), assignment.worker_slot_matrix()
    )
    assert lazy.is_lazy and not dense.is_lazy
    return lazy, dense, matrix


def make_context(assignment, matrix, byzantine, seed=0):
    return AttackContext(
        assignment=assignment,
        byzantine_workers=tuple(byzantine),
        honest_matrix=matrix,
        iteration=1,
        rng=np.random.default_rng(seed),
    )


def assert_tensors_identical(lazy, dense):
    """Densify the lazy tensor and compare bit-for-bit."""
    assert np.array_equal(
        lazy.materialize_files(np.arange(lazy.num_files)), dense.values
    )


# --------------------------------------------------------------------------- #
# q = 0 fast path: a clean round never copies a replica
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_q0_round_never_materializes(scheme):
    assignment = SCHEMES[scheme]()
    lazy, dense, _ = make_pair(assignment)
    for lazy_pipe, dense_pipe in zip(
        pipelines_for(scheme, assignment), pipelines_for(scheme, assignment)
    ):
        lazy_clone = lazy.copy()
        out_lazy = lazy_pipe.aggregate_tensor(lazy_clone).aggregate
        out_dense = dense_pipe.aggregate_tensor(dense.copy()).aggregate
        assert np.array_equal(out_lazy, out_dense), lazy_pipe.pipeline_name
        # aggregation of a clean round must not densify nor allocate overrides
        assert lazy_clone.is_lazy
        assert lazy_clone.num_overridden_slots == 0


def test_q0_attack_application_stays_lazy(mols_assignment):
    lazy, _, matrix = make_pair(mols_assignment)
    for name in available_attacks():
        attack = create_attack(name)
        context = make_context(mols_assignment, matrix, byzantine=())
        attack.apply_tensor(context, lazy)
    assert lazy.is_lazy and lazy.num_overridden_slots == 0


# --------------------------------------------------------------------------- #
# COW vs materialized: every registered attack, every scheme
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("attack_name", available_attacks())
def test_cow_matches_materialized_under_attack(scheme, attack_name):
    assignment = SCHEMES[scheme]()
    lazy, dense, matrix = make_pair(assignment, seed=3)
    byzantine = (0, min(5, assignment.num_workers - 1))
    attack = create_attack(attack_name)
    for tensor in (lazy, dense):
        tensor.mark_byzantine(byzantine)
        context = make_context(assignment, matrix, byzantine, seed=11)
        attack.apply_tensor(context, tensor)
    assert lazy.is_lazy  # attacks go through the slot API, never .values
    assert lazy.num_overridden_slots > 0
    assert_tensors_identical(lazy, dense)
    for lazy_pipe, dense_pipe in zip(
        pipelines_for(scheme, assignment), pipelines_for(scheme, assignment)
    ):
        assert np.array_equal(
            lazy_pipe.aggregate_tensor(lazy.copy()).aggregate,
            dense_pipe.aggregate_tensor(dense.copy()).aggregate,
        ), (attack_name, lazy_pipe.pipeline_name)


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


@pytest.mark.parametrize("injector_name", sorted(INJECTORS))
def test_cow_matches_materialized_under_faults(mols_assignment, injector_name):
    lazy, dense, _ = make_pair(mols_assignment, seed=5)
    events = []
    for tensor in (lazy, dense):
        injector = INJECTORS[injector_name]()
        context = FaultContext(
            assignment=mols_assignment, iteration=2, rng=np.random.default_rng(7)
        )
        events.append(injector.inject(tensor, context))
    assert [e.as_dict() for e in events[0]] == [e.as_dict() for e in events[1]]
    assert lazy.is_lazy
    assert_tensors_identical(lazy, dense)


def test_cow_matches_materialized_attack_then_faults(mols_assignment):
    """The full hot-path sequence: attack writes, then every injector."""
    lazy, dense, matrix = make_pair(mols_assignment, seed=9)
    byzantine = (1, 4, 8)
    attack = create_attack("gaussian_noise", sigma=3.0)
    for tensor in (lazy, dense):
        tensor.mark_byzantine(byzantine)
        attack.apply_tensor(
            context=make_context(mols_assignment, matrix, byzantine, seed=13),
            tensor=tensor,
        )
        for injector_name in sorted(INJECTORS):
            INJECTORS[injector_name]().inject(
                tensor,
                FaultContext(
                    assignment=mols_assignment,
                    iteration=0,
                    rng=np.random.default_rng(17),
                ),
            )
    assert lazy.is_lazy
    assert_tensors_identical(lazy, dense)
    pipeline = ByzShieldPipeline(mols_assignment)
    assert np.array_equal(
        pipeline.aggregate_tensor(lazy).aggregate, pipeline.aggregate_tensor(dense).aggregate
    )


# --------------------------------------------------------------------------- #
# Vectorized noise attacks vs a per-slot scalar writer
# --------------------------------------------------------------------------- #
def scalar_adapter(attack, context, tensor):
    """Per-slot reference writer: one ``(d,)`` draw and one ``set_vote`` per
    (worker, file), workers in context order, files in assignment order."""
    for worker in context.byzantine_workers:
        for file in context.assignment.files_of_worker(worker):
            if attack.attack_name == "uniform_random":
                vector = context.rng.uniform(
                    -attack.magnitude, attack.magnitude, size=tensor.dim
                )
            else:
                vector = context.rng.standard_normal(tensor.dim) * attack.sigma
                if attack.around_true_gradient:
                    vector = vector + context.honest_matrix[file]
            tensor.set_vote(file, worker, vector)


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
    lazy, dense, matrix = make_pair(assignment, seed=21)
    attack = attack_factory()
    lazy.mark_byzantine(byzantine)
    dense.mark_byzantine(byzantine)
    # vectorized write on the lazy tensor
    attack.apply_tensor(make_context(assignment, matrix, byzantine, seed=23), lazy)
    # per-slot scalar draws on the dense tensor
    scalar_adapter(attack, make_context(assignment, matrix, byzantine, seed=23), dense)
    assert lazy.is_lazy
    assert_tensors_identical(lazy, dense)


# --------------------------------------------------------------------------- #
# Slot-API unit tests
# --------------------------------------------------------------------------- #
def test_write_and_read_slots_broadcast(mols_assignment):
    lazy, dense, _ = make_pair(mols_assignment, seed=1)
    files = np.array([0, 3, 3], dtype=np.int64)
    slots = np.array([1, 0, 2], dtype=np.int64)
    payload = np.arange(3 * DIM, dtype=np.float64).reshape(3, DIM)
    for tensor in (lazy, dense):
        tensor.write_slots(files, slots, payload)  # (m, d) rows
        tensor.write_slots([5], [1], 2.5)  # scalar fill
        tensor.write_slots([6], [2], np.full(DIM, -1.0))  # (d,) vector
        assert np.array_equal(tensor.read_slots(files, slots), payload)
        assert np.all(tensor.read_slots([5], [1]) == 2.5)
    assert lazy.is_lazy and lazy.num_overridden_slots == 5
    assert_tensors_identical(lazy, dense)


def test_add_scale_zero_slots(mols_assignment):
    lazy, dense, matrix = make_pair(mols_assignment, seed=2)
    files = np.array([1, 2, 4], dtype=np.int64)
    slots = np.array([0, 1, 2], dtype=np.int64)
    delta = np.random.default_rng(3).standard_normal((3, DIM))
    for tensor in (lazy, dense):
        tensor.add_to_slots(files, slots, delta)
        tensor.scale_slots(files[:2], slots[:2], 0.5)
        tensor.zero_slots(files[2:], slots[2:])
    assert_tensors_identical(lazy, dense)
    # untouched replicas of a touched file still read the honest row
    untouched_slot = 2 if 2 != slots[0] else 1
    assert np.array_equal(lazy.read_slots([1], [untouched_slot])[0], matrix[1])


def test_selected_untouched_column_is_the_shared_readonly_base(mols_assignment):
    lazy, _, matrix = make_pair(mols_assignment)
    column = np.zeros(lazy.num_files, dtype=np.int64)
    rows = lazy.select_slots(column).densified()
    assert np.shares_memory(rows, matrix)
    assert not rows.flags.writeable
    assert lazy.is_lazy  # select_slots never densifies
    # touching a slot in column 0 patches that one row
    lazy.write_slots([2], [0], 9.0)
    selection = lazy.select_slots(column)
    assert selection.files.tolist() == [2] and selection.rows.shape == (1, DIM)
    patched = selection.densified()
    assert not np.shares_memory(patched, matrix)  # a copy now, not the shared base
    assert np.all(patched[2] == 9.0)
    assert np.array_equal(patched[0], matrix[0])


def test_touched_files_and_materialize_files(mols_assignment):
    lazy, _, matrix = make_pair(mols_assignment)
    assert lazy.touched_files().size == 0
    lazy.write_slots([4, 7], [1, 2], 1.5)
    assert lazy.touched_files().tolist() == [4, 7]
    sub = lazy.materialize_files([4, 7])
    assert sub.shape == (2, lazy.replication, DIM)
    assert np.all(sub[0, 1] == 1.5) and np.all(sub[1, 2] == 1.5)
    assert np.array_equal(sub[0, 0], matrix[4])
    assert lazy.is_lazy  # materialize_files is a per-file copy, not a switch


def test_base_rows_only_defined_for_lazy(mols_assignment):
    lazy, dense, matrix = make_pair(mols_assignment)
    base = lazy.base_rows()
    assert np.array_equal(base, matrix)
    assert not base.flags.writeable
    with pytest.raises(ConfigurationError):
        dense.base_rows()


def test_values_densifies_permanently_and_keeps_writes(mols_assignment):
    lazy, _, matrix = make_pair(mols_assignment)
    lazy.write_slots([3], [1], 7.0)
    cube = lazy.values
    assert not lazy.is_lazy
    assert lazy.num_overridden_slots == 0  # dense tensors report zero
    assert np.all(cube[3, 1] == 7.0)
    # in-place writes through the dense cube are never lost
    cube[0, 0] = -3.0
    assert np.all(lazy.values[0, 0] == -3.0)
    assert np.array_equal(lazy.values[0, 1], matrix[0])


def test_lazy_copy_is_independent_and_cheap(mols_assignment):
    lazy, _, matrix = make_pair(mols_assignment)
    lazy.write_slots([2], [0], 4.0)
    clone = lazy.copy()
    assert clone.is_lazy
    assert clone.base_rows() is not None
    # the immutable honest base is shared, the override bookkeeping is not
    assert clone.read_slots([2], [0])[0][0] == 4.0
    clone.write_slots([5], [1], -2.0)
    assert lazy.num_overridden_slots == 1
    assert clone.num_overridden_slots == 2
    assert np.array_equal(lazy.read_slots([5], [1])[0], matrix[5])
    # writing to the original does not leak into the clone either
    lazy.write_slots([2], [0], 8.0)
    assert clone.read_slots([2], [0])[0][0] == 4.0


def test_set_vote_routes_through_cow(mols_assignment):
    lazy, dense, _ = make_pair(mols_assignment)
    worker = int(lazy.workers[0, 1])
    vec = np.full(DIM, 3.25)
    lazy.set_vote(0, worker, vec)
    dense.set_vote(0, worker, vec)
    assert lazy.is_lazy and lazy.num_overridden_slots == 1
    assert_tensors_identical(lazy, dense)


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
    assert lazy.values.dtype == np.float32


def test_lazy_majority_survives_hash_collisions(monkeypatch, mols_assignment):
    """Degenerate hash weights throw every override into one bucket; the lazy
    kernel's collision fallback must still match the dense kernel bit-for-bit."""
    from repro.aggregation import majority as majority_module
    from repro.aggregation.majority import (
        majority_vote_tensor,
        majority_vote_votetensor,
    )

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
        dense_values = lazy.materialize_files(np.arange(f)).copy()
        lw, lc = majority_vote_votetensor(lazy)
        lw = lw.densified()
        dw, dc = majority_vote_tensor(dense_values)
        np.testing.assert_array_equal(lw, dw)
        np.testing.assert_array_equal(lc, dc)


# --------------------------------------------------------------------------- #
# Payload table: shared rows, the aliasing rule, content classes
# --------------------------------------------------------------------------- #
def test_shared_payload_allocates_one_row(mols_assignment):
    lazy, dense, _ = make_pair(mols_assignment, seed=4)
    files = np.array([0, 3, 3, 9], dtype=np.int64)
    slots = np.array([1, 0, 2, 1], dtype=np.int64)
    payload = np.arange(DIM, dtype=np.float64)
    for tensor in (lazy, dense):
        tensor.write_slots(files, slots, payload)
    assert lazy.num_overridden_slots == 4  # slots, not rows
    assert lazy.num_override_rows == 1
    assert lazy.override_nbytes == DIM * 8
    _, _, row_ids, rows = lazy.override_table()
    assert row_ids.tolist() == [0, 0, 0, 0]
    assert not rows.flags.writeable
    assert_tensors_identical(lazy, dense)
    # a scalar fill is one row too; an (m, d) matrix is one row per slot
    lazy.zero_slots([5, 6], [0, 0])
    assert lazy.num_override_rows == 2
    lazy.write_slots([7, 8], [0, 0], np.ones((2, DIM)))
    assert lazy.num_override_rows == 4
    assert lazy.num_overridden_slots == 8
    assert (dense.num_override_rows, dense.override_nbytes) == (0, 0)


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
    lazy, dense, _ = make_pair(mols_assignment, seed=12)
    r = lazy.replication
    capacities = set()
    rows = rng.standard_normal((64, DIM))
    for k, row in enumerate(rows):
        for tensor in (lazy, dense):
            tensor.write_slots([k // r], [k % r], row)
        capacities.add(lazy._store.shape[0])
    assert capacities == {1, 2, 4, 8, 16, 32, 64}  # one reallocation per doubling
    assert lazy.num_override_rows == 64
    assert_tensors_identical(lazy, dense)
    files, slots = np.divmod(np.arange(64), r)
    assert np.array_equal(lazy.read_slots(files, slots), rows)


@pytest.mark.parametrize("mutator", ["scale_slots", "add_to_slots", "set_vote"])
def test_mutating_one_shared_slot_leaves_the_others_untouched(mols_assignment, mutator):
    """The CorruptionInjector path after a colluding attack: one of m slots
    sharing a stored row is rewritten; the other m - 1 must not change."""
    lazy, dense, _ = make_pair(mols_assignment, seed=6)
    files = np.array([1, 2, 4, 4], dtype=np.int64)
    slots = np.array([0, 1, 0, 2], dtype=np.int64)
    payload = np.random.default_rng(8).standard_normal(DIM)
    for tensor in (lazy, dense):
        tensor.write_slots(files, slots, payload)
        if mutator == "scale_slots":
            tensor.scale_slots([2], [1], -3.0)
        elif mutator == "add_to_slots":
            tensor.add_to_slots([2], [1], np.full(DIM, 0.25))
        else:
            tensor.set_vote(2, int(tensor.workers[2, 1]), np.full(DIM, 9.0))
    others = lazy.read_slots(files[[0, 2, 3]], slots[[0, 2, 3]])
    assert all(np.array_equal(row, payload) for row in others)
    assert not np.array_equal(lazy.read_slots([2], [1])[0], payload)
    assert_tensors_identical(lazy, dense)


def test_lazy_subset_is_read_only(mols_assignment):
    """Regression: a write through a lazy subset used to land in the parent's
    store, where the parent's next allocation overwrote it."""
    lazy, _, matrix = make_pair(mols_assignment, seed=5)
    lazy.write_slots([0], [0], 1.0)
    sub = lazy.slot_subset(np.arange(lazy.num_files), np.array([0, 1]))
    for write in (
        lambda: sub.write_slots([3], [1], 5.0),
        lambda: sub.zero_slots([3], [1]),
        lambda: sub.scale_slots([3], [1], 2.0),
        lambda: sub.add_to_slots([3], [1], 1.0),
        lambda: sub.set_vote(3, int(sub.workers[3, 1]), np.zeros(DIM)),
    ):
        with pytest.raises(ConfigurationError, match="read-only"):
            write()
    lazy.write_slots([4], [2], 7.0)
    assert np.array_equal(sub.read_slots([3], [1])[0], matrix[3])
    assert np.all(sub.read_slots([0], [0]) == 1.0)
    # a dense subset is an independent copy and stays writable
    lazy.values
    dense_sub = lazy.slot_subset(np.arange(lazy.num_files), np.array([0, 1]))
    dense_sub.write_slots([3], [1], 5.0)
    assert np.array_equal(lazy.read_slots([3], [1])[0], matrix[3])


def test_block_reads_gather_each_row_from_where_it_lives(mols_assignment):
    lazy, dense, _ = make_pair(mols_assignment, seed=9)
    for tensor in (lazy, dense):
        tensor.write_slots([2, 5], [0, 1], np.full(DIM, 4.0))
        tensor.write_slots([5], [2], np.arange(DIM, dtype=np.float64))
    files = np.array([5, 2, 5, 0, 2, 5], dtype=np.int64)  # base and store mixed
    slots = np.array([2, 0, 1, 1, 2, 0], dtype=np.int64)
    for sel in (slice(None), slice(0, 2), slice(3, 4)):  # mixed / all store / all base
        for lo, hi in ((0, DIM), (2, 5), (DIM - 1, DIM)):
            got = lazy.read_slots_block(files[sel], slots[sel], lo, hi)
            want = dense.read_slots_block(files[sel], slots[sel], lo, hi)
            assert np.array_equal(got, want)
    assert np.array_equal(lazy.read_slots(files, slots), dense.read_slots(files, slots))
    assert np.array_equal(lazy.materialize_files([5, 0]), dense.materialize_files([5, 0]))


def test_separately_written_equal_rows_land_in_one_class(mols_assignment):
    from repro.aggregation.majority import majority_vote_votetensor, override_content_ids

    lazy, _, matrix = make_pair(mols_assignment, seed=12)
    lazy.zero_slots([3], [0])
    lazy.zero_slots([3], [2])  # a second, separately stored all-zero row
    lazy.write_slots([6], [1], matrix[6])  # an override equal to its base
    assert lazy.num_override_rows == 3
    cid = override_content_ids(lazy)
    assert cid[3, 0] == cid[3, 2] != 0
    assert cid[3, 1] == 0 and not cid[6].any()
    assert np.count_nonzero(cid) == 2
    winners, counts = majority_vote_votetensor(lazy)
    winners = winners.densified()
    assert counts[3] == 2 and not winners[3].any()
    assert counts[6] == 3 and np.array_equal(winners[6], matrix[6])


@pytest.mark.parametrize("block_size", [None, 3])
def test_forced_hash_collision_with_shared_and_distinct_rows(
    monkeypatch, mols_assignment, block_size
):
    """All hashes equal: rows sharing storage, distinct rows with equal bytes
    and distinct rows with different bytes must still be classed exactly."""
    from repro.aggregation import majority as majority_module
    from repro.aggregation.majority import (
        majority_vote_tensor,
        majority_vote_votetensor,
        override_content_ids,
    )

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
    dense_values = lazy.materialize_files(np.arange(lazy.num_files))
    lw, lc = majority_vote_votetensor(lazy, block_size=block_size)
    lw = lw.densified()
    dw, dc = majority_vote_tensor(dense_values)
    np.testing.assert_array_equal(lw, dw)
    np.testing.assert_array_equal(lc, dc)
    assert lc[0] == 2 and np.array_equal(lw[0], a)
