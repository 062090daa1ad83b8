"""``array_digest`` against the implementation it replaced.

The digest is *defined* over ``repr(shape)`` followed by the C-order float64
bytes.  The five lines that used to compute it — densify, copy to float64,
copy to ``bytes``, hash — stay here as the oracle; the shipped version must
agree with them bit for bit on every kind of input while never building any
of those copies (plain arrays) or the ``(f, r, d)`` cube (vote tensors).
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from repro.core.vote_tensor import VoteTensor
from repro.utils.digest import array_digest


def oracle_digest(array):
    """``array_digest`` as it stood before it streamed (kept verbatim)."""
    payload = np.ascontiguousarray(array, dtype=np.float64)
    hasher = hashlib.sha256()
    hasher.update(repr(payload.shape).encode())
    hasher.update(payload.tobytes())
    return hasher.hexdigest()[:16]


# --------------------------------------------------------------------------- #
# Plain arrays
# --------------------------------------------------------------------------- #
def _payload_nans(dtype):
    """Quiet NaNs with non-default sign/payload bits: they must reach the hash
    exactly as ``astype(float64)`` carries them."""
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
    yield "bool", np.array([True, False])
    yield "big-endian", rng.standard_normal((3, 4)).astype(">f8")


PLAIN_CASES = dict(_plain_cases())


@pytest.mark.parametrize("case", sorted(PLAIN_CASES))
def test_plain_array_digest_matches_the_oracle(case):
    array = PLAIN_CASES[case]
    assert array_digest(array) == oracle_digest(array)


def test_shape_is_part_of_the_digest():
    flat = np.arange(12.0)
    assert array_digest(flat) != array_digest(flat.reshape(3, 4))
    assert array_digest(np.float64(3.0)) == array_digest(np.array([3.0]))  # 0-d digests as (1,)


# --------------------------------------------------------------------------- #
# Vote tensors: streamed from the copy-on-write store
# --------------------------------------------------------------------------- #
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
EXTRA_WRITES = ("none", "shared", "per-slot", "slot-written-twice")


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
    densify=st.booleans(),
    extra=st.sampled_from(EXTRA_WRITES),
    seed=st.integers(0, 10_000),
)
def test_streamed_tensor_digest_matches_the_oracle_on_the_dense_cube(
    scheme, attack_name, q, injectors, dtype, dim, densify, extra, seed
):
    """Whatever wrote the round — any registered attack, any q, any faults,
    shared or per-slot payloads, a slot written twice — hashing the tensor
    where it lies equals hashing its dense cube the old way, and looking at a
    lazy tensor leaves it lazy."""
    assignment = SCHEMES[scheme]
    rng = np.random.default_rng(seed)
    honest = rng.standard_normal((assignment.num_files, dim)).astype(dtype)
    byzantine = tuple(
        int(w) for w in rng.choice(assignment.num_workers, size=q, replace=False)
    )
    tensor = VoteTensor.from_honest(assignment, honest)
    tensor.mark_byzantine(byzantine)
    create_attack(attack_name).apply_tensor(
        AttackContext(
            assignment=assignment,
            byzantine_workers=byzantine,
            honest_matrix=honest,
            iteration=seed % 5,
            rng=np.random.default_rng(seed + 1),
        ),
        tensor,
    )
    for name in injectors:
        INJECTORS[name]().inject(
            tensor,
            FaultContext(
                assignment=assignment, iteration=seed % 3, rng=np.random.default_rng(seed + 2)
            ),
        )
    _extra_write(tensor, extra, rng)
    assert tensor.is_lazy and tensor.dtype == dtype

    cube = tensor.copy().values
    if densify:
        tensor = tensor.copy()
        assert tensor.values.shape == cube.shape  # reading .values densifies the copy
    assert tensor.is_lazy != densify

    assert array_digest(tensor) == oracle_digest(cube)
    assert tensor.is_lazy != densify  # observation did not flip the tensor
    assert tensor.nbytes == cube.nbytes

    # the iterator itself: read-only rows that concatenate to the cube
    runs = list(tensor.row_runs())
    assert not any(row.flags.writeable for row, _ in runs)
    streamed = np.concatenate([np.repeat(row[None], repeats, axis=0) for row, repeats in runs])
    assert streamed.tobytes() == cube.tobytes()
