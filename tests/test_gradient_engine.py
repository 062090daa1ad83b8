"""Equivalence properties of the stacked per-file gradient engine.

The stacked engine (`Sequential.per_file_loss_and_gradients`, dispatched by
``ModelGradientComputer.batched``) must be a pure execution-layout change:
for every architecture, every file count and BatchNorm on/off, its per-file
losses and gradients have to be *bit-identical* to the looped engine — and
ragged files or layers without a stacked rule must silently fall back to the
looped path.  The 24 golden traces (tests/test_golden_traces.py) pin the same
contract end to end; these tests pin it at the engine level with diagnosable
granularity.
"""

import copy
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.compression.compressors import (
    IdentityCompressor,
    QuantizedCompressor,
    RandomKCompressor,
    SignCompressor,
    TopKCompressor,
)
from repro.data.batching import RoundFiles
from repro.exceptions import ConfigurationError, TrainingError
from repro.nn.layers import (
    BatchNorm,
    Dense,
    Dropout,
    Flatten,
    Layer,
    ReLU,
    ResidualDenseBlock,
    Tanh,
)
from repro.nn.losses import MeanSquaredError, SoftmaxCrossEntropy
from repro.nn.models import Sequential, build_cnn, build_mlp, build_resnet_lite
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ScenarioSpec
from repro.training.gradients import ModelGradientComputer

FILE_COUNTS = (1, 4, 25)

MODELS = {
    "mlp": (lambda: build_mlp(30, 5, hidden=(16, 16), seed=3), "dense"),
    "mlp_bn": (
        lambda: build_mlp(30, 5, hidden=(16, 16), seed=3, batch_norm=True),
        "dense",
    ),
    "cnn": (lambda: build_cnn((1, 8, 8), 4, channels=(4, 8), seed=3), "image"),
    "resnet_lite": (
        lambda: build_resnet_lite(30, 5, width=16, num_blocks=2, seed=3),
        "dense",
    ),
}


def make_files(kind, num_files, batch=6, seed=0):
    rng = np.random.default_rng(seed)
    files = []
    for _ in range(num_files):
        if kind == "dense":
            inputs = rng.standard_normal((batch, 30))
            labels = rng.integers(0, 5, batch)
        else:
            inputs = rng.standard_normal((batch, 1, 8, 8))
            labels = rng.integers(0, 4, batch)
        files.append((inputs, labels))
    return files


def both_engines(model_fn):
    looped = ModelGradientComputer(model_fn(), engine="looped")
    stacked = ModelGradientComputer(model_fn(), engine="stacked")
    return looped, stacked


@pytest.mark.parametrize("num_files", FILE_COUNTS)
@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_stacked_engine_bit_identical(model_name, num_files):
    model_fn, kind = MODELS[model_name]
    looped, stacked = both_engines(model_fn)
    params = looped.initial_params()
    files = make_files(kind, num_files)

    loop_grads, loop_losses = looped.batched(params, files)
    stack_grads, stack_losses = stacked.batched(params, files)

    assert looped.last_engine == "looped"
    assert stacked.last_engine == "stacked"
    assert stack_grads.dtype == np.float64 and stack_grads.shape == loop_grads.shape
    assert np.array_equal(loop_grads, stack_grads)
    assert np.array_equal(loop_losses, stack_losses)


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_stacked_rows_match_single_file_oracle(model_name):
    """Every stacked row equals what the per-file ``__call__`` oracle returns."""
    model_fn, kind = MODELS[model_name]
    computer = ModelGradientComputer(model_fn())
    params = computer.initial_params()
    files = make_files(kind, 4)
    grads, losses = computer.batched(params, files)
    assert computer.last_engine == "stacked"
    for i, (inputs, labels) in enumerate(files):
        gradient, loss = computer(params, inputs, labels)
        assert np.array_equal(grads[i], gradient)
        assert losses[i] == loss


def test_batchnorm_running_stats_match_looped_order():
    """Sequential per-file running-stat updates replay bit-identically."""
    model_fn = MODELS["mlp_bn"][0]
    looped, stacked = both_engines(model_fn)
    params = looped.initial_params()
    files = make_files("dense", 7)
    looped.batched(params, files)
    stacked.batched(params, files)
    for l_layer, s_layer in zip(looped.model.layers, stacked.model.layers):
        if hasattr(l_layer, "running_mean"):
            assert np.array_equal(l_layer.running_mean, s_layer.running_mean)
            assert np.array_equal(l_layer.running_var, s_layer.running_var)


def test_ragged_files_fall_back_to_looped():
    model_fn, kind = MODELS["mlp"]
    looped, stacked = both_engines(model_fn)
    params = looped.initial_params()
    files = make_files(kind, 4)
    # Odd-size last file: shapes are no longer uniform.
    rng = np.random.default_rng(9)
    files[-1] = (rng.standard_normal((3, 30)), rng.integers(0, 5, 3))

    loop_grads, loop_losses = looped.batched(params, files)
    stack_grads, stack_losses = stacked.batched(params, files)
    assert stacked.last_engine == "looped"
    assert np.array_equal(loop_grads, stack_grads)
    assert np.array_equal(loop_losses, stack_losses)


def test_unsupported_layer_falls_back_to_looped():
    def model_fn():
        model = build_mlp(30, 5, hidden=(16,), seed=3)
        # Dropout has no stacked rule (per-file RNG draw order); inserting it
        # in eval-equivalent position still forces the fallback.
        layers = list(model.layers)
        layers.insert(1, Dropout(0.0))
        return Sequential(layers, name="mlp+dropout")

    looped, stacked = both_engines(model_fn)
    assert not stacked.model.supports_per_file()
    params = looped.initial_params()
    files = make_files("dense", 4)
    loop_grads, loop_losses = looped.batched(params, files)
    stack_grads, stack_losses = stacked.batched(params, files)
    assert stacked.last_engine == "looped"
    assert np.array_equal(loop_grads, stack_grads)
    assert np.array_equal(loop_losses, stack_losses)


def test_stacked_pair_input_uses_stacked_engine():
    """The (stacked inputs, stacked labels) calling form hits the fast path."""
    model_fn, kind = MODELS["mlp"]
    computer = ModelGradientComputer(model_fn())
    params = computer.initial_params()
    files = make_files(kind, 4)
    stacked_inputs = np.stack([inputs for inputs, _ in files])
    stacked_labels = np.stack([labels for _, labels in files])
    grads_pair, losses_pair = computer.batched(params, (stacked_inputs, stacked_labels))
    assert computer.last_engine == "stacked"
    grads_list, losses_list = computer.batched(params, files)
    assert np.array_equal(grads_pair, grads_list)
    assert np.array_equal(losses_pair, losses_list)


def test_per_file_workspace_is_written_in_place():
    model_fn, kind = MODELS["mlp"]
    model = model_fn()
    loss = SoftmaxCrossEntropy()
    files = make_files(kind, 3)
    x = np.stack([inputs for inputs, _ in files])
    y = np.stack([labels for _, labels in files])
    workspace = np.full((3, model.num_parameters()), np.nan)
    losses, grads = model.per_file_loss_and_gradients(x, y, loss, out=workspace)
    assert grads is workspace
    assert not np.isnan(workspace).any()
    assert losses.shape == (3,)

    with pytest.raises(ConfigurationError):
        model.per_file_loss_and_gradients(
            x, y, loss, out=np.empty((3, model.num_parameters() + 1))
        )
    with pytest.raises(ConfigurationError):
        model.per_file_loss_and_gradients(
            x, y, loss, out=np.empty((3, model.num_parameters()), dtype=np.float32)
        )


def test_per_file_rejects_unsupported_model():
    model = Sequential([Dropout(0.5), *build_mlp(30, 5, hidden=(16,)).layers])
    with pytest.raises(ConfigurationError, match="Dropout"):
        model.per_file_loss_and_gradients(
            np.zeros((2, 4, 30)), np.zeros((2, 4), dtype=np.int64), SoftmaxCrossEntropy()
        )


def test_batched_rejects_empty_files_both_engines():
    for engine in ("stacked", "looped"):
        computer = ModelGradientComputer(MODELS["mlp"][0](), engine=engine)
        params = computer.initial_params()
        files = make_files("dense", 2)
        files[1] = (np.empty((0, 30)), np.empty(0, dtype=np.int64))
        with pytest.raises(TrainingError, match="empty file"):
            computer.batched(params, files)


def test_unknown_engine_rejected():
    with pytest.raises(TrainingError, match="unknown gradient engine"):
        ModelGradientComputer(MODELS["mlp"][0](), engine="warp")


def test_mse_per_file_matches_looped():
    loss = MeanSquaredError()
    rng = np.random.default_rng(2)
    predictions = rng.standard_normal((5, 6, 3))
    targets = rng.standard_normal((5, 6, 3))
    values, grads = loss.per_file_value_and_gradient(predictions, targets)
    for i in range(5):
        assert values[i] == loss.value(predictions[i], targets[i])
        assert np.array_equal(grads[i], loss.gradient(predictions[i], targets[i]))


@pytest.mark.parametrize(
    "compressor_fn",
    [
        IdentityCompressor,
        SignCompressor,
        lambda: TopKCompressor(0.1),
        lambda: RandomKCompressor(0.1, seed=5),
        lambda: QuantizedCompressor(4, seed=5),
    ],
    ids=["identity", "sign", "topk", "randomk", "quantized"],
)
def test_compress_matrix_matches_per_row_loop(compressor_fn):
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((6, 40))
    # Stochastic compressors consume RNG row by row; the reference loop uses
    # a twin instance with the same seed so both see the same stream.
    twin = compressor_fn()
    reference = np.vstack([twin(row).vector for row in matrix])
    assert np.array_equal(compressor_fn().compress_matrix(matrix), reference)


def test_compress_matrix_rejects_bad_shapes():
    compressor = TopKCompressor(0.5)
    with pytest.raises(ConfigurationError):
        compressor.compress_matrix(np.zeros(4))
    with pytest.raises(ConfigurationError):
        compressor.compress_matrix(np.zeros((0, 4)))
    with pytest.raises(ConfigurationError):
        compressor.compress_matrix(np.zeros((4, 0)))


# --------------------------------------------------------------------------- #
# The pass computes only what a round consumes
# --------------------------------------------------------------------------- #
def bits(array):
    array = np.ascontiguousarray(array)
    return array.view(np.uint32 if array.dtype == np.float32 else np.uint64)


@st.composite
def activations(draw):
    """Float arrays that over-sample the values a rectifier can get wrong."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    info = np.finfo(dtype)
    edge = [0.0, np.inf, np.nan, 1.0]
    edge += [float(v) for v in (info.smallest_subnormal, info.tiny, info.max, info.eps)]
    elements = st.one_of(
        st.sampled_from(edge + [-v for v in edge]),
        st.floats(width=info.bits, allow_nan=True, allow_infinity=True, allow_subnormal=True),
    )
    shape = draw(st.sampled_from([(1,), (7, 5), (2, 3, 17)]))
    return draw(arrays(dtype, shape, elements=elements))


@settings(max_examples=200, deadline=None)
@given(x=activations())
def test_rectifier_equals_where_bit_for_bit_and_spares_its_input(x):
    reference = bits(np.where(x > 0, x, 0.0))
    before = bits(x).copy()
    for forward in (ReLU().forward, ReLU().forward_per_file):
        out = forward(x)
        assert out.dtype == x.dtype and not np.shares_memory(out, x)
        assert np.array_equal(bits(out), reference)
        assert np.array_equal(bits(x), before)


def first_layer_models(dtype):
    """Models by what their first parameterised layer is, with the input kind."""
    return {
        "dense": (build_mlp(30, 5, hidden=(16,), seed=3, dtype=dtype), "dense"),
        "batchnorm": (
            Sequential([
                BatchNorm(30, dtype=dtype),
                Dense(30, 16, rng=1, dtype=dtype),
                ReLU(),
                Dense(16, 5, rng=2, dtype=dtype),
            ]),
            "dense",
        ),
        "conv2d": (
            build_cnn((1, 8, 8), 5, channels=(4,), dense_width=8, seed=3, dtype=dtype),
            "image",
        ),
        "residual": (
            Sequential([
                ResidualDenseBlock(30, rng=1, dtype=dtype),
                Dense(30, 5, rng=2, dtype=dtype),
            ]),
            "dense",
        ),
        "flatten_dense": (
            Sequential([
                Flatten(),
                Dense(64, 16, rng=1, dtype=dtype),
                Tanh(),
                Dense(16, 5, rng=2, dtype=dtype),
            ]),
            "image",
        ),
    }


@pytest.mark.parametrize("loss_name", ["ce", "mse"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("num_files", [1, 2, 25])
@pytest.mark.parametrize("first", sorted(first_layer_models("float64")))
def test_stacked_looped_and_call_agree_byte_for_byte(first, num_files, dtype, loss_name):
    model, kind = first_layer_models(dtype)[first]
    rng = np.random.default_rng(11)
    shape = (30,) if kind == "dense" else (1, 8, 8)
    files = [
        (
            rng.standard_normal((6,) + shape).astype(dtype),
            rng.integers(0, 5, 6) if loss_name == "ce" else rng.standard_normal((6, 5)),
        )
        for _ in range(num_files)
    ]
    loss = SoftmaxCrossEntropy() if loss_name == "ce" else MeanSquaredError()
    stacked = ModelGradientComputer(model, loss, engine="stacked")
    looped = ModelGradientComputer(copy.deepcopy(model), loss, engine="looped")
    oracle = ModelGradientComputer(copy.deepcopy(model), loss)
    params = stacked.initial_params()

    stack_grads, stack_losses = stacked.batched(params, files)
    loop_grads, loop_losses = looped.batched(params, files)
    assert (stacked.last_engine, looped.last_engine) == ("stacked", "looped")
    assert stack_grads.dtype == stack_losses.dtype == np.dtype(dtype)
    assert stack_grads.tobytes() == loop_grads.tobytes()
    assert stack_losses.tobytes() == loop_losses.tobytes()
    for i, (inputs, labels) in enumerate(files):
        gradient, value = oracle(params, inputs, labels)
        assert gradient.tobytes() == stack_grads[i].tobytes()
        assert np.asarray(value, dtype=dtype).tobytes() == stack_losses[i].tobytes()


def record_backward_returns(model, method):
    """Shim every layer's ``method``; ``{layer index: what it returned}``."""
    returned = {}
    for index, layer in enumerate(model.layers):
        def shim(*args, _original=getattr(layer, method), _index=index, **kwargs):
            returned[_index] = _original(*args, **kwargs)
            return returned[_index]

        setattr(layer, method, shim)
    return returned


@pytest.mark.parametrize(
    "engine, method", [("stacked", "backward_per_file"), ("looped", "backward")]
)
def test_backward_stops_at_the_first_parameterised_layer(engine, method):
    """Flatten -> Dense -> ReLU -> Dense: the first Dense makes no ``grad @ W.T``
    (it returns no input gradient), Flatten is not run backward, and the inner
    Dense still hands its input gradient down."""
    model = Sequential([Flatten(), Dense(64, 16, rng=1), ReLU(), Dense(16, 5, rng=2)])
    computer = ModelGradientComputer(model, engine=engine)
    returned = record_backward_returns(model, method)
    computer.batched(computer.initial_params(), make_files("image", 3))
    assert computer.last_engine == engine
    assert sorted(returned) == [1, 2, 3]
    assert returned[1] is None
    # the looped engine's last call saw one file of 6 samples, the stacked one all 3
    assert returned[2].shape == returned[3].shape == ((6, 16) if engine == "looped" else (3, 6, 16))


def stacked_arrays_held(model, num_files, batch):
    """Every ``(f, n, ...)`` array reachable from the model's layers."""
    found, seen, stack = [], set(), list(model.layers)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.shape[:2] == (num_files, batch):
                found.append(obj.shape)
        elif isinstance(obj, (Layer, dict, tuple, list)):
            stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("first", sorted(first_layer_models("float64")))
def test_no_stacked_activation_outlives_the_pass(first):
    """Neither a normal pass nor one the loss aborts (labels out of range)
    leaves a layer holding all ``f`` files' activations."""
    model, kind = first_layer_models("float64")[first]
    x = np.random.default_rng(0).standard_normal((3, 7) + ((30,) if kind == "dense" else (1, 8, 8)))
    labels = np.zeros((3, 7), dtype=np.int64)
    loss = SoftmaxCrossEntropy()
    model.per_file_loss_and_gradients(x, labels, loss)
    assert stacked_arrays_held(model, 3, 7) == []
    with pytest.raises(ConfigurationError, match="out of range"):
        model.per_file_loss_and_gradients(x, labels + 5, loss)
    assert stacked_arrays_held(model, 3, 7) == []


# --------------------------------------------------------------------------- #
# One representation of a round's files
# --------------------------------------------------------------------------- #
def small_trainer(partition=None):
    data = {"num_train": 300, "num_test": 50, "num_classes": 3, "dim": 8}
    if partition is not None:
        data["partition"] = partition
    return ScenarioRunner(ScenarioSpec.from_dict({
        "name": "round-files",
        "cluster": {"scheme": "mols", "params": {"load": 5, "replication": 3}},
        "pipeline": {"kind": "byzshield", "aggregator": "median"},
        "data": data,
        "model": {"hidden": [10]},
        "training": {"batch_size": 100, "num_iterations": 2, "eval_every": 2},
    })).build_trainer()


@pytest.mark.parametrize(
    "partition", [None, {"kind": "dirichlet", "alpha": 0.5}], ids=["iid", "sharded"]
)
def test_round_files_are_one_gather_viewed_per_file(partition):
    trainer = small_trainer(partition)
    sampler = trainer.sampler
    gathers = []
    original = sampler.batch_data
    sampler.batch_data = lambda indices: gathers.append(indices) or original(indices)
    file_indices = trainer._next_file_indices()
    files = trainer._file_data(file_indices)
    sampler.batch_data = original

    assert len(gathers) == 1 and isinstance(files, RoundFiles)
    inputs, labels = files.stacked
    assert inputs.shape == (25, 4, 8) and labels.shape == (25, 4) and len(files) == 25
    for indices, (file_inputs, file_labels) in zip(file_indices, files, strict=True):
        expected_inputs, expected_labels = sampler.batch_data(indices)
        assert np.array_equal(file_inputs, expected_inputs)
        assert np.array_equal(file_labels, expected_labels)
        assert np.shares_memory(file_inputs, inputs)
        assert np.shares_memory(file_labels, labels)

    # the engine reads the gather itself: no stack, no copy
    seen = []
    model = trainer.gradient_computer.model
    original_pass = model.per_file_loss_and_gradients
    model.per_file_loss_and_gradients = (
        lambda x, y, *args, **kwargs: seen.append((x, y)) or original_pass(x, y, *args, **kwargs)
    )
    trainer.cluster.run_round_tensor(trainer.server.broadcast(), files, 0)
    assert trainer.gradient_computer.last_engine == "stacked"
    assert seen[0][0] is inputs and seen[0][1] is labels


def test_coerce_takes_every_calling_form_and_keeps_round_files_as_is():
    model_fn, kind = MODELS["mlp"]
    computer = ModelGradientComputer(model_fn())
    params = computer.initial_params()
    pairs = make_files(kind, 3)
    inputs = np.stack([x for x, _ in pairs])
    labels = np.stack([y for _, y in pairs])
    expected, expected_losses = (a.copy() for a in computer.batched(params, pairs))

    files = RoundFiles.coerce((inputs, labels))
    assert RoundFiles.coerce(files) is files and files.stacked[0] is inputs
    # a *list* of the two stacked arrays used to be taken for two files
    for form in (files, [inputs, labels], dict(enumerate(pairs)), iter(pairs)):
        gradients, losses = computer.batched(params, form)
        assert computer.last_engine == "stacked"
        assert np.array_equal(gradients, expected) and np.array_equal(losses, expected_losses)

    ragged = RoundFiles.coerce(pairs[:2] + [(inputs[0, :2], labels[0, :2])])
    assert ragged.stacked is None and len(ragged) == 3
    assert [x.shape[0] for x, _ in ragged] == [6, 6, 2]


@pytest.mark.parametrize(
    "files, message",
    [
        ([], "needs >= 1 file"),
        ((np.zeros((0, 4, 30)), np.zeros((0, 4), dtype=int)), "needs >= 1 file"),
        ((np.zeros((2, 0, 30)), np.zeros((2, 0), dtype=int)), "empty file"),
        ([(np.zeros((4, 30)), np.zeros(4)), (np.zeros((0, 30)), np.zeros(0))], "empty file"),
        ((np.zeros((2, 4, 30)), np.zeros((3, 4), dtype=int)), r"\(2, 4, 30\) and \(3, 4\)"),
        ([np.zeros((2, 4, 30)), np.zeros(2, dtype=int)], r"labels \(f, n, \.\.\.\)"),
        ((np.zeros(30), np.zeros(30, dtype=int)), r"inputs \(f, n, \.\.\.\)"),
        ({0: (np.zeros((4, 30)), np.zeros(4)), 2: (np.zeros((4, 30)), np.zeros(4))}, r"range\(2\)"),
    ],
    ids=[
        "no-files", "no-stacked-files", "stacked-empty", "pair-empty", "leading-axes",
        "labels-1d", "inputs-1d", "dict-keys",
    ],
)
def test_coerce_names_what_it_was_given(files, message):
    computer = ModelGradientComputer(MODELS["mlp"][0]())
    with pytest.raises(TrainingError, match=message):
        computer.batched(computer.initial_params(), files)
