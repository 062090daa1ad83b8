"""End-to-end tests of the dtype seam: float32 through the whole round loop.

The backend seam (:mod:`repro.core.backend`) replaces the hard-coded
``np.float64`` coercions so the same code runs in ``float32`` or ``float64``
end to end.  These tests pin (a) that a ``float32`` round really stays
``float32`` from the model's backward pass to the PS update, (b) that the
vectorized majority kernel is correct on ``float32`` payloads, and (c) that
the default ``float64`` path — which all golden traces pin bit-exactly — is
untouched by the seam.
"""

import numpy as np
import pytest

from repro.aggregation import majority as majority_module
from repro.aggregation.majority import majority_vote_tensor
from repro.core.vote_tensor import VoteTensor
from repro.exceptions import ConfigurationError
from repro.nn.models import build_cnn, build_mlp, build_resnet_lite
from repro.nn.optim import SGD
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.training.gradients import ModelGradientComputer


def scenario_dict(dtype=None, name="dtype-seam"):
    out = {
        "name": name,
        "seed": 5,
        "cluster": {"scheme": "mols", "params": {"load": 5, "replication": 3}},
        "pipeline": {"kind": "byzshield", "aggregator": "median"},
        "data": {"num_train": 150, "num_test": 50, "num_classes": 3, "dim": 8},
        "model": {"hidden": [10]},
        "training": {"batch_size": 75, "num_iterations": 3, "eval_every": 2},
        "attack": {
            "name": "alie",
            "schedule": {"kind": "static", "q": 2},
        },
    }
    if dtype is not None:
        out["dtype"] = dtype
    return out


# --------------------------------------------------------------------------- #
# Spec-level plumbing
# --------------------------------------------------------------------------- #
def test_spec_dtype_roundtrip_and_validation():
    spec = ScenarioSpec.from_dict(scenario_dict("float32"))
    assert spec.dtype == "float32"
    assert spec.to_dict()["dtype"] == "float32"
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ConfigurationError):
        ScenarioSpec.from_dict(scenario_dict("float16"))


def test_default_dtype_does_not_change_spec_digest():
    """float64 is omitted from the canonical dict so every pre-seam spec —
    and the golden traces pinned to its digest — hashes unchanged."""
    implicit = ScenarioSpec.from_dict(scenario_dict())
    explicit = ScenarioSpec.from_dict(scenario_dict("float64"))
    assert "dtype" not in implicit.to_dict()
    assert "dtype" not in explicit.to_dict()
    assert implicit.digest() == explicit.digest()
    assert implicit.digest() != ScenarioSpec.from_dict(scenario_dict("float32")).digest()


# --------------------------------------------------------------------------- #
# Models and gradients
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "builder, kwargs",
    [
        (build_mlp, {"input_dim": 8, "num_classes": 3, "hidden": (6,)}),
        (
            build_cnn,
            {
                "input_shape": (1, 8, 8),
                "num_classes": 3,
                "channels": (2,),
                "dense_width": 6,
            },
        ),
        (build_resnet_lite, {"input_dim": 8, "num_classes": 3, "width": 6}),
    ],
    ids=["mlp", "cnn", "resnet_lite"],
)
def test_builders_respect_dtype(builder, kwargs):
    f32 = builder(seed=0, dtype="float32", **kwargs)
    f64 = builder(seed=0, **kwargs)
    assert f32.dtype == np.float32 and f64.dtype == np.float64
    assert f32.get_flat_params().dtype == np.float32
    assert f64.get_flat_params().dtype == np.float64
    # same seed: the float32 weights are the float64 draws, rounded
    np.testing.assert_array_equal(
        f32.get_flat_params(), f64.get_flat_params().astype(np.float32)
    )


def test_gradient_engine_emits_model_dtype():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((12, 8))
    y = rng.integers(0, 3, 12)
    for dtype in ("float32", "float64"):
        model = build_mlp(8, 3, hidden=(6,), seed=2, dtype=dtype)
        computer = ModelGradientComputer(model)
        params = model.get_flat_params()
        gradient, loss = computer(params, x, y)
        assert gradient.dtype == np.dtype(dtype)
        assert isinstance(loss, float)
        stacked, losses = computer.batched(params, [(x[:6], y[:6]), (x[6:], y[6:])])
        assert stacked.dtype == np.dtype(dtype)
        assert losses.dtype == np.dtype(dtype)  # per-file losses follow the model


def test_sgd_step_preserves_dtype():
    opt = SGD(0.1, momentum=0.9)
    for dtype in (np.float32, np.float64):
        params = np.ones(5, dtype=dtype)
        gradient = np.full(5, 0.5, dtype=dtype)
        out = opt.step_vector(params, gradient)
        assert out.dtype == dtype
        out = opt.step_vector(out, gradient)
        assert out.dtype == dtype


# --------------------------------------------------------------------------- #
# Majority kernel on float32 payloads
# --------------------------------------------------------------------------- #
def test_majority_kernel_float32_matches_reference():
    rng = np.random.default_rng(8)
    for trial in range(60):
        f, r, d = rng.integers(1, 6), rng.integers(1, 6), rng.integers(1, 8)
        values = rng.integers(-2, 3, (f, r, d)).astype(np.float32)
        if trial % 2 == 0:
            values[:, 1:] = values[:, :1]
        for tolerance in (0.0, 1.5):
            winners, counts = majority_vote_tensor(values, tolerance)
            assert winners.dtype == np.float32
            for i in range(f):
                if tolerance == 0.0:
                    ref_w, ref_c = majority_module._reference_exact_majority(values[i])
                else:
                    ref_w, ref_c = majority_module._reference_clustered_majority(
                        values[i], tolerance
                    )
                assert np.array_equal(winners[i], ref_w), (trial, tolerance, i)
                assert counts[i] == ref_c


def test_majority_kernel_float32_bit_semantics():
    """Exact voting compares uint32 bit patterns on float32 payloads."""
    values = np.zeros((1, 3, 1), dtype=np.float32)
    values[0, 0] = -0.0
    values[0, 1] = 0.0
    values[0, 2] = -0.0
    winners, counts = majority_vote_tensor(values)
    assert counts[0] == 2 and np.signbit(winners[0, 0])


def test_vote_tensor_rejects_nothing_but_propagates_dtype(mols_assignment):
    matrix32 = np.zeros((mols_assignment.num_files, 4), dtype=np.float32)
    t = VoteTensor.from_honest(mols_assignment, matrix32)
    assert t.dtype == np.float32
    winners = t.select_slots(np.zeros(t.num_files, dtype=int))
    assert winners.dtype == np.float32


# --------------------------------------------------------------------------- #
# Full scenario runs
# --------------------------------------------------------------------------- #
def test_float32_scenario_runs_and_is_deterministic():
    spec = ScenarioSpec.from_dict(scenario_dict("float32"))
    first = run_scenario(spec)
    second = run_scenario(spec)
    assert first.trace.rounds  # it actually trained
    assert first.trace.to_dict() == second.trace.to_dict()
    assert first.trace.spec_digest == spec.digest()


def test_float32_scenario_tracks_float64_within_tolerance():
    """float32 is a *numerically close* rerun of the float64 scenario, not a
    bit-exact one: same schedule, same adversary, small rounding drift."""
    res64 = run_scenario(ScenarioSpec.from_dict(scenario_dict()))
    res32 = run_scenario(ScenarioSpec.from_dict(scenario_dict("float32")))
    assert len(res32.trace.rounds) == len(res64.trace.rounds)
    for r32, r64 in zip(res32.trace.rounds, res64.trace.rounds):
        assert r32.q == r64.q and r32.byzantine == r64.byzantine
        loss32 = float.fromhex(r32.mean_loss_hex)
        loss64 = float.fromhex(r64.mean_loss_hex)
        assert loss32 == pytest.approx(loss64, rel=1e-3)
    np.testing.assert_allclose(
        res32.history.train_losses, res64.history.train_losses, rtol=1e-3
    )
