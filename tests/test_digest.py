"""``array_digest`` against dense oracles.

A plain array's digest is *defined* over ``repr(shape)``, a dtype tag
unless it is float64, and the C-order bytes of its own float width.  The
oracle, ``plain_digest`` in ``reference_round.py``, states it as the lines
that computed every digest in trace format v2 — copy to float64 (float32
to native float32 with the v3 tag), copy to ``bytes``, hash.  The shipped
version must agree with it bit for bit on every kind of input while never
building those copies.

A round's vote tensor and winners digest from the vote's content ids.
Their oracle is the reference round's encoder (``reference_round.py``),
written from the definition: build the ``(f, r, d)`` cube, class its rows
by ``tobytes()`` against each file's honest base row and against each
other, and hash header, shape, tag, ids, base rows and the distinct rows in
the cube's own width.  The shipped
digest reads the same parts off the vote's content ids and the
copy-on-write store, never building the cube.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.assignment.baseline import BaselineAssignment
from repro.assignment.frc import FRCAssignment
from repro.assignment.mols import MOLSAssignment
from repro.assignment.ramanujan import RamanujanAssignment
from repro.aggregation.majority import majority_vote_votetensor
from repro.attacks.registry import available_attacks, create_attack
from repro.cluster.faults import (
    DropoutInjector,
    FaultContext,
    MessageCorruptionInjector,
    StragglerInjector,
)
from repro.core.vote_tensor import RowSelection, VoteTensor
from repro.exceptions import ConfigurationError
from repro.scenarios.golden import golden_path, replay_golden
from repro.scenarios.trace import RunTrace, TraceMismatch
from repro.utils.digest import array_digest

from cow_helpers import LAYOUTS, attack_context, cube_of, tensor_of
from reference_round import content_ids, plain_digest
from reference_round import votes_digest as reference_votes_digest
from reference_round import winners_digest as reference_winners_digest


# --------------------------------------------------------------------------- #
# Plain arrays
# --------------------------------------------------------------------------- #
def _payload_nans(dtype):
    """Quiet NaNs with non-default sign/payload bits: they must reach the hash
    exactly as they are stored."""
    if dtype == np.float32:
        return np.array([0x7FC00001, 0xFFC12345], dtype=np.uint32).view(dtype)
    return np.array([0x7FF8000000000001, 0xFFF8000000012345], dtype=np.uint64).view(dtype)


def _plain_cases():
    rng = np.random.default_rng(0)
    for dtype in (np.float32, np.float64):
        name = np.dtype(dtype).name
        matrix = rng.standard_normal((300, 700)).astype(dtype)  # several blocks
        yield f"{name}-c-order", matrix
        yield f"{name}-f-order", np.asfortranarray(matrix)
        yield f"{name}-strided-rows", matrix[::3]
        yield f"{name}-strided-columns", matrix[:, 1::2]
        yield f"{name}-transposed", matrix.T
        yield f"{name}-long-vector", rng.standard_normal(200_001).astype(dtype)
        yield f"{name}-reversed-vector", matrix[0, ::-1]
        yield f"{name}-cube", rng.standard_normal((4, 3, 5)).astype(dtype)
        yield f"{name}-one-wide-row", rng.standard_normal((2, 70_000)).astype(dtype)
        yield f"{name}-0d", np.asarray(1.5, dtype=dtype)
        yield f"{name}-empty-vector", np.empty(0, dtype=dtype)
        yield f"{name}-no-rows", np.empty((0, 3), dtype=dtype)
        yield f"{name}-no-columns", np.empty((3, 0), dtype=dtype)
        special = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0], dtype=dtype)
        yield f"{name}-nan-inf", np.concatenate([special, _payload_nans(dtype)])
        yield f"{name}-read-only", np.broadcast_to(special, (4, 6))
    yield "python-scalar", 2.0
    yield "python-list", [[1, 2], [3, 4]]
    yield "int64", np.arange(12).reshape(3, 4)
    yield "int32", np.arange(12, dtype=np.int32).reshape(3, 4)
    yield "bool", np.array([True, False])
    yield "big-endian", rng.standard_normal((3, 4)).astype(">f8")
    yield "big-endian-strided", rng.standard_normal((5, 4)).astype(">f8")[::2]
    yield "float32-big-endian", rng.standard_normal((3, 4)).astype(">f4")


PLAIN_CASES = dict(_plain_cases())


@pytest.mark.parametrize("case", sorted(PLAIN_CASES))
def test_plain_array_digest_matches_the_oracle(case):
    assert array_digest(PLAIN_CASES[case]) == plain_digest(PLAIN_CASES[case])


@pytest.mark.parametrize(
    "case", sorted(case for case in PLAIN_CASES if case.startswith("float32-"))
)
def test_a_float32_array_no_longer_digests_as_its_float64_widening(case):
    """Trace format v3 changed this contract on purpose: a float32 array
    hashes its own bytes, so it and its exact widening digest differently
    (through v2 they were equal)."""
    array = PLAIN_CASES[case]
    assert array_digest(array) != array_digest(array.astype(np.float64))


def test_shape_is_part_of_the_digest():
    flat = np.arange(12.0)
    assert array_digest(flat) != array_digest(flat.reshape(3, 4))
    assert array_digest(np.float64(3.0)) == array_digest(np.array([3.0]))  # 0-d digests as (1,)


# --------------------------------------------------------------------------- #
# Vote tensors and winners against the reference encoder
# --------------------------------------------------------------------------- #
def votes_digest(tensor, block_size=None):
    """What the run loop records: the digest over the vote's own ids."""
    return array_digest(tensor, majority_vote_votetensor(tensor, block_size).content_ids)


SCHEMES = {
    "mols": MOLSAssignment(load=5, replication=3).assignment,
    "ramanujan": RamanujanAssignment(m=5, s=5).assignment,
    "frc": FRCAssignment(num_workers=15, replication=3).assignment,
    "baseline": BaselineAssignment(num_workers=10).assignment,
}

INJECTORS = {
    "stragglers": lambda: StragglerInjector(
        count=4, delay_model="exponential", delay=2.0, timeout=1.0
    ),
    "dropout": lambda: DropoutInjector(probability=0.4, down_for=2),
    "corruption-zero": lambda: MessageCorruptionInjector(probability=0.3, mode="zero"),
    "corruption-scale": lambda: MessageCorruptionInjector(
        probability=0.3, mode="scale", factor=5.0
    ),
    "corruption-noise": lambda: MessageCorruptionInjector(
        probability=0.3, mode="noise", factor=2.0
    ),
}

#: direct slot writes on top of whatever the attack and the faults wrote
EXTRA_WRITES = ("none", "shared", "per-slot", "slot-written-twice", "base-equal")


def _extra_write(tensor, kind, rng):
    if kind == "none":
        return
    count = min(4, tensor.workers.size)
    picked = rng.choice(tensor.workers.size, size=count, replace=False)
    files, slots = np.unravel_index(picked, tensor.workers.shape)
    special = np.resize([np.nan, np.inf, -np.inf, -0.0, 1e30], tensor.dim)
    if kind == "shared":
        tensor.write_slots(files, slots, special)  # one stored row, `count` slots
    elif kind == "per-slot":
        tensor.write_slots(files, slots, rng.standard_normal((count, tensor.dim)))
    elif kind == "base-equal":
        tensor.write_slots(files, slots, tensor.base_rows()[files])  # id 0 all the same
    else:
        tensor.write_slots(files[:1], slots[:1], special)  # orphaned by the next write
        tensor.write_slots(files[:1], slots[:1], rng.standard_normal(tensor.dim))


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(
    scheme=st.sampled_from(sorted(SCHEMES)),
    attack_name=st.sampled_from(available_attacks()),
    q=st.integers(0, 6),
    injectors=st.lists(st.sampled_from(sorted(INJECTORS)), unique=True, max_size=3),
    dtype=st.sampled_from([np.float32, np.float64]),
    dim=st.integers(1, 9),
    layout=st.sampled_from(("as-written",) + LAYOUTS),
    extra=st.sampled_from(EXTRA_WRITES),
    seed=st.integers(0, 10_000),
)
def test_votes_digest_matches_the_reference_encoder_on_the_dense_cube(
    scheme, attack_name, q, injectors, dtype, dim, layout, extra, seed
):
    """Whatever wrote the round — any registered attack, any q, any faults,
    shared or per-slot payloads, a slot written twice, a payload equal to
    its base row — and however the cube is stored over its base, the vote's
    content ids are the reference ids and the digest over them is the
    reference encoder's; hashing writes nothing."""
    assignment = SCHEMES[scheme]
    rng = np.random.default_rng(seed)
    honest = rng.standard_normal((assignment.num_files, dim)).astype(dtype)
    byzantine = tuple(
        int(w) for w in rng.choice(assignment.num_workers, size=q, replace=False)
    )
    tensor = VoteTensor.from_honest(assignment, honest)
    tensor.mark_byzantine(byzantine)
    create_attack(attack_name).apply_tensor(
        attack_context(assignment, byzantine, honest, seed % 5, seed + 1), tensor
    )
    for name in injectors:
        INJECTORS[name]().inject(
            tensor,
            FaultContext(
                assignment=assignment, iteration=seed % 3, rng=np.random.default_rng(seed + 2)
            ),
        )
    _extra_write(tensor, extra, rng)
    assert tensor.dtype == dtype

    cube = cube_of(tensor)
    if layout != "as-written":
        tensor = tensor_of(cube, assignment, base=honest, layout=layout)
    rows = tensor.num_override_rows

    ids = majority_vote_votetensor(tensor).content_ids
    assert np.array_equal(ids, content_ids(honest, cube)[0])
    assert array_digest(tensor, ids) == reference_votes_digest(honest, cube)
    assert tensor.num_override_rows == rows  # observation wrote nothing
    assert tensor.nbytes == cube.nbytes


def _case(name, dtype):
    """``(base, cube)`` of one hand-built round: f = 4, r = 3, d = 5 unless
    the case is about the shape."""
    rng = np.random.default_rng(sum(map(ord, name)))
    f, r, d = {"d-one": (4, 3, 1), "r-one": (4, 1, 5)}.get(name, (4, 3, 5))
    base = rng.standard_normal((f, d)).astype(dtype)
    cube = np.repeat(base[:, None, :], r, axis=1)
    if name == "shared-payload":  # one colluding row on three files
        cube[[0, 1, 3], [2, 0, 1]] = rng.standard_normal(d).astype(dtype)
    elif name in ("per-slot-payloads", "d-one", "r-one"):
        cube[[0, 2, 2], [0, 0, r - 1]] = rng.standard_normal((3, d)).astype(dtype)
    elif name == "payload-on-another-files-base":
        cube[0, r - 1] = base[1]
    elif name == "signed-zeros":
        base[1] = 0.0
        cube[1] = 0.0
        cube[1, 0] = -0.0
        cube[2, 1] = np.where(base[2] == 0, 0.0, -0.0)  # a row of -0.0 on file 2
    return base, cube


CASES = (
    "honest",
    "shared-payload",
    "per-slot-payloads",
    "payload-on-another-files-base",
    "signed-zeros",
    "d-one",
    "r-one",
)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", CASES)
def test_every_layout_of_one_cube_digests_as_the_reference(case, dtype):
    base, cube = _case(case, dtype)
    digests = {
        layout: votes_digest(tensor_of(cube, base=base, layout=layout)) for layout in LAYOUTS
    }
    assert set(digests.values()) == {reference_votes_digest(base, cube)}, digests
    tensor = tensor_of(cube, base=base, layout="rewritten")
    for block_size in (1, 2, 4096):  # classing streams blocks; the ids do not move
        assert votes_digest(tensor, block_size) == digests["per-slot"]
    if case == "signed-zeros":
        assert content_ids(base, cube)[0][1].tolist() == [1, 0, 0]  # -0.0 is not +0.0


def _flip(row, rng):
    """``row`` with one random bit flipped."""
    bits = row.copy().view(np.uint32 if row.dtype == np.float32 else np.uint64)
    at = rng.integers(row.size)
    bits[at] ^= bits.dtype.type(1) << bits.dtype.type(rng.integers(8 * bits.itemsize))
    return bits.view(row.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", ["shared-payload", "per-slot-payloads", "signed-zeros"])
def test_one_bit_or_one_moved_payload_changes_the_digest(case, dtype):
    base, cube = _case(case, dtype)
    original = votes_digest(tensor_of(cube, base=base))
    rng = np.random.default_rng(0)
    ids = content_ids(base, cube)[0]
    seen = {original}
    for i in range(base.shape[0]):
        flipped = base.copy()
        flipped[i] = _flip(base[i], rng)
        follows = cube.copy()  # the honest replicas carry the flipped bit too
        follows[i][ids[i] == 0] = flipped[i]
        for moved in (cube, follows):
            digest = votes_digest(tensor_of(moved, base=flipped))
            assert digest not in seen
            seen.add(digest)
    for i, k in zip(*np.nonzero(ids)):
        flipped = cube.copy()
        flipped[i, k] = _flip(cube[i, k], rng)
        digest = votes_digest(tensor_of(flipped, base=base))
        assert digest not in seen
        seen.add(digest)
    # a payload moved to another slot: of its own file, then of another file
    i, k = np.argwhere(ids)[0]
    moves = 0
    for j in (i, (i + 1) % cube.shape[0]):
        for m in np.nonzero(ids[j] == 0)[0][:1]:
            moved = cube.copy()
            moved[j, m], moved[i, k] = cube[i, k], base[i]
            assert votes_digest(tensor_of(moved, base=base)) not in seen
            moves += 1
    assert moves == 2


def test_a_vote_digests_only_from_its_canonical_ids():
    base, cube = _case("shared-payload", np.float64)
    tensor = tensor_of(cube, base=base)
    ids = majority_vote_votetensor(tensor).content_ids
    renumbered = np.where(ids > 0, ids + 1, 0)  # same classes, not canonical
    stray = ids.copy()
    stray[2, 0] = ids.max() + 1  # a payload id on a slot nobody wrote
    for bad in (None, ids[:, :2], renumbered, stray):
        with pytest.raises(ConfigurationError):
            array_digest(tensor, bad)
    selection = RowSelection(base)
    with pytest.raises(ConfigurationError):
        array_digest(selection)
    refs = np.column_stack([np.arange(4), np.zeros(4, dtype=np.int64)])
    assert array_digest(selection, refs) == reference_winners_digest((4, 5), refs)


# --------------------------------------------------------------------------- #
# Trace formats: v2 for a float64 run, v3 for a float32 one
# --------------------------------------------------------------------------- #
FLOAT32_GOLDEN, FLOAT64_GOLDEN = "mols-images-float32", "mols-alie-omniscient"


def _relabelled(name, version, directory):
    """A copy of golden ``name`` in ``directory`` that claims ``version``."""
    document = json.loads(golden_path(name).read_text())
    document["format_version"] = version
    path = golden_path(name, directory)
    path.write_text(json.dumps(document))
    return path


def test_a_float32_trace_recorded_as_v2_is_refused_by_name(tmp_path):
    """A float32 golden from before native-width digests loads, but its
    replay fails on the format, right after the spec digest and before any
    round — never as a bare digest mismatch in some round."""
    path = _relabelled(FLOAT32_GOLDEN, 2, tmp_path)
    assert RunTrace.from_json_file(path).format_version == 2
    with pytest.raises(TraceMismatch, match="trace format 3 != golden 2$"):
        replay_golden(FLOAT32_GOLDEN, tmp_path)


def test_a_float64_trace_stays_v2_and_loads():
    assert RunTrace.from_json_file(golden_path(FLOAT64_GOLDEN)).format_version == 2
    assert RunTrace.from_json_file(golden_path(FLOAT32_GOLDEN)).format_version == 3
