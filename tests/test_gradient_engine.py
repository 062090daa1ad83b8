"""Equivalence properties of the stacked per-file gradient pass.

The stacked pass (`Sequential.per_file_loss_and_gradients`, run by
``ModelGradientComputer.batched``) must be a pure execution-layout change:
for every MLP shape and every file count, its per-file losses and gradients
have to be *bit-identical* to the per-file reference — ``__call__`` (the
model's plain ``loss_and_gradient``) on each file in turn.  The golden
traces (tests/test_golden_traces.py) pin the same contract end to end; these
tests pin it at the pass level with diagnosable granularity.
"""

import copy
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.nn.metrics as metrics_module
import repro.nn.models as models
from repro.compression.compressors import SignCompressor, TopKCompressor
from repro.data.batching import BatchSampler, RoundFiles
from repro.data.synthetic import make_gaussian_mixture
from repro.exceptions import ConfigurationError, TrainingError
from repro.nn.layers import Dense, Layer, ReLU
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.metrics import cross_entropy_loss, evaluate_model, top1_accuracy
from repro.nn.models import Sequential, build_mlp
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ScenarioSpec
from repro.training.gradients import ModelGradientComputer

FILE_COUNTS = (1, 4, 25)

MODELS = {
    "mlp": lambda: build_mlp(30, 5, hidden=(16, 16), seed=3),
    "mlp_linear": lambda: build_mlp(30, 5, hidden=(), seed=3),
    "mlp_deep": lambda: build_mlp(30, 5, hidden=(24, 16, 8), seed=3),
    # a hidden layer narrower than the five logits
    "mlp_bottleneck": lambda: build_mlp(30, 5, hidden=(3,), seed=3),
}


def make_files(num_files, batch=6, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (rng.standard_normal((batch, 30)), rng.integers(0, 5, batch))
        for _ in range(num_files)
    ]


def looped(model, params, files):
    """The per-file reference: ``__call__`` on each file of ``files`` (pairs)
    in turn, on a copy of ``model``, as one ``(f, d)`` matrix and the losses
    in the model's dtype."""
    oracle = ModelGradientComputer(copy.deepcopy(model))
    rows = [oracle(params, np.asarray(x), np.asarray(y)) for x, y in files]
    gradients = np.stack([gradient for gradient, _ in rows])
    return gradients, np.array([value for _, value in rows], dtype=model.dtype)


@pytest.mark.parametrize("num_files", FILE_COUNTS)
@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_stacked_engine_bit_identical(model_name, num_files):
    stacked = ModelGradientComputer(MODELS[model_name]())
    params = stacked.initial_params()
    files = make_files(num_files)

    loop_grads, loop_losses = looped(stacked.model, params, files)
    stack_grads, stack_losses = stacked.batched(params, files)

    assert stack_grads.dtype == np.float64 and stack_grads.shape == loop_grads.shape
    assert np.array_equal(loop_grads, stack_grads)
    assert np.array_equal(loop_losses, stack_losses)


def test_stacked_pair_input_uses_stacked_engine():
    """The (stacked inputs, stacked labels) calling form gives the pairs' bits."""
    model_fn = MODELS["mlp"]
    computer = ModelGradientComputer(model_fn())
    params = computer.initial_params()
    files = make_files(4)
    stacked_inputs = np.stack([inputs for inputs, _ in files])
    stacked_labels = np.stack([labels for _, labels in files])
    grads_pair, losses_pair = computer.batched(params, (stacked_inputs, stacked_labels))
    grads_list, losses_list = computer.batched(params, files)
    assert np.array_equal(grads_pair, grads_list)
    assert np.array_equal(losses_pair, losses_list)


def test_per_file_workspace_is_written_in_place():
    model_fn = MODELS["mlp"]
    model = model_fn()
    loss = SoftmaxCrossEntropy()
    files = make_files(3)
    x = np.stack([inputs for inputs, _ in files])
    y = np.stack([labels for _, labels in files])
    workspace = np.full((3, model.num_parameters()), np.nan)
    files = RoundFiles.coerce((x, y))
    losses, grads = model.per_file_loss_and_gradients(files, loss, out=workspace)
    assert grads is workspace
    assert not np.isnan(workspace).any()
    assert losses.shape == (3,)

    with pytest.raises(ConfigurationError):
        model.per_file_loss_and_gradients(
            files, loss, out=np.empty((3, model.num_parameters() + 1))
        )
    with pytest.raises(ConfigurationError):
        model.per_file_loss_and_gradients(
            files, loss, out=np.empty((3, model.num_parameters()), dtype=np.float32)
        )


def test_cross_entropy_per_file_matches_looped():
    loss = SoftmaxCrossEntropy()
    rng = np.random.default_rng(2)
    predictions = rng.standard_normal((5, 6, 3))
    targets = rng.integers(0, 3, (5, 6))
    values, grads = loss.per_file_value_and_gradient(predictions, targets)
    for i in range(5):
        assert values[i] == loss.value(predictions[i], targets[i])
        assert np.array_equal(grads[i], loss.gradient(predictions[i], targets[i]))


@pytest.mark.parametrize(
    "compressor_fn",
    [
        SignCompressor,
        lambda: TopKCompressor(0.1),
        lambda: TopKCompressor(0.01),  # rounds to k = 0: at least one is kept
        lambda: TopKCompressor(1.0),
    ],
    ids=["sign", "topk", "topk-one", "topk-all"],
)
def test_compress_matrix_matches_per_row_loop(compressor_fn):
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((6, 40))
    reference = np.vstack([compressor_fn()(row) for row in matrix])
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
def test_plain_rectifier_equals_where_bit_for_bit_and_spares_its_input(x):
    reference = bits(np.where(x > 0, x, 0.0))
    before = bits(x).copy()
    out = ReLU().forward(x)
    assert out.dtype == x.dtype and not np.shares_memory(out, x)
    assert np.array_equal(bits(out), reference)
    assert np.array_equal(bits(x), before)


@settings(max_examples=200, deadline=None)
@given(x=activations())
def test_stacked_rectifier_returns_its_input_rectified_as_where_does(x):
    """The stacked pass owns the arrays it hands between layers, so its
    rectifier writes in place: the same bits as ``np.where``, and the same
    mask for the backward pass as the plain path's."""
    reference = bits(np.where(x > 0, x, 0.0))
    mask = x > 0
    layer = ReLU()
    out = layer.forward_per_file(x)
    assert out is x
    assert np.array_equal(bits(out), reference)
    assert np.array_equal(layer._cache, mask)


def first_layer_models(dtype):
    """Models by where their first parameterised layer sits and what it is."""
    return {
        "dense": build_mlp(30, 5, hidden=(16,), seed=3, dtype=dtype),
        "relu_then_dense": Sequential([
            ReLU(),
            Dense(30, 16, rng=1, dtype=dtype),
            ReLU(),
            Dense(16, 5, rng=2, dtype=dtype),
        ]),
        # the first parameterised layer is also the last: no input gradient anywhere
        "dense_only": build_mlp(30, 5, hidden=(), seed=3, dtype=dtype),
        # two inner Dense layers each hand their input gradient down
        "dense_deep": build_mlp(30, 5, hidden=(16, 8), seed=3, dtype=dtype),
        # the last layer is an activation: the loss gradient enters through a ReLU
        "relu_before_loss": Sequential([
            Dense(30, 16, rng=1, dtype=dtype),
            ReLU(),
            Dense(16, 5, rng=2, dtype=dtype),
            ReLU(),
        ]),
    }


@pytest.mark.parametrize("batch", [1, 6])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("num_files", [1, 2, 25])
@pytest.mark.parametrize("first", sorted(first_layer_models("float64")))
def test_stacked_looped_and_call_agree_byte_for_byte(first, num_files, dtype, batch):
    model = first_layer_models(dtype)[first]
    rng = np.random.default_rng(11)
    files = [
        (rng.standard_normal((batch, 30)).astype(dtype), rng.integers(0, 5, batch))
        for _ in range(num_files)
    ]
    stacked = ModelGradientComputer(model)
    params = stacked.initial_params()

    stack_grads, stack_losses = stacked.batched(params, files)
    loop_grads, loop_losses = looped(model, params, files)
    assert stack_grads.dtype == stack_losses.dtype == np.dtype(dtype)
    assert stack_grads.tobytes() == loop_grads.tobytes()
    assert stack_losses.tobytes() == loop_losses.tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("first", sorted(first_layer_models("float64")))
def test_the_callers_stacked_arrays_keep_their_bits(first, dtype):
    """The stacked pass overwrites the chunks it gathers, never the arrays
    they were gathered from: ``relu_then_dense`` rectifies its first chunk in
    place, and every inner ``Dense`` writes its input gradient over its input."""
    model = first_layer_models(dtype)[first]
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 6, 30)).astype(dtype)
    y = rng.integers(0, 5, (4, 6))
    x_before, y_before = x.copy(), y.copy()
    computer = ModelGradientComputer(model)
    computer.batched(computer.initial_params(), (x, y))
    assert bits(x).tobytes() == bits(x_before).tobytes()
    assert y.tobytes() == y_before.tobytes()


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
    """ReLU -> Dense -> ReLU -> Dense: the first Dense makes no ``grad @ W.T``
    (it returns no input gradient), the ReLU in front of it is not run
    backward, and the inner Dense still hands its input gradient down — in
    the stacked pass and in the per-file reference (``__call__`` per file)."""
    model = Sequential([ReLU(), Dense(30, 16, rng=1), ReLU(), Dense(16, 5, rng=2)])
    computer = ModelGradientComputer(model)
    returned = record_backward_returns(model, method)
    params, files = computer.initial_params(), make_files(3)
    if engine == "stacked":
        computer.batched(params, files)
    else:
        for inputs, labels in files:
            computer(params, inputs, labels)
    assert sorted(returned) == [1, 2, 3]
    assert returned[1] is None
    # the reference's last call saw one file of 6 samples, the stacked pass all 3
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
    model = first_layer_models("float64")[first]
    x = np.random.default_rng(0).standard_normal((3, 7, 30))
    labels = np.zeros((3, 7), dtype=np.int64)
    loss = SoftmaxCrossEntropy()
    model.per_file_loss_and_gradients(RoundFiles.coerce((x, labels)), loss)
    assert stacked_arrays_held(model, 3, 7) == []
    with pytest.raises(ConfigurationError, match="out of range"):
        model.per_file_loss_and_gradients(RoundFiles.coerce((x, labels + 5)), loss)
    assert stacked_arrays_held(model, 3, 7) == []


# --------------------------------------------------------------------------- #
# The pass walks the files in chunks
# --------------------------------------------------------------------------- #
def chunk_budget(monkeypatch, model, shape, width):
    """Set the chunk budget so inputs of ``shape`` run ``width`` files a chunk:
    one file costs its ``n`` gathered samples and every layer's output for
    them, once each."""
    features = per_sample = shape[2]
    for layer in model.layers:
        features = layer.out_features if isinstance(layer, Dense) else features
        per_sample += features
    per_file = shape[1] * per_sample * model.dtype.itemsize
    monkeypatch.setattr(models, "_CHUNK_BYTES", width * per_file)
    assert model._files_per_chunk(shape) == width


def count_chunks(model):
    """Shim the model's per-chunk pass; the list of its chunks' file counts."""
    seen, original = [], model._stacked_pass

    def counting(x, *args):
        seen.append(x.shape[0])
        return original(x, *args)

    model._stacked_pass = counting
    return seen


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("width", [1, 2, 7, 25, 40], ids=lambda w: f"width{w}")
def test_any_chunk_width_matches_the_looped_engine_bit_for_bit(monkeypatch, width, dtype):
    """Widths 1 and 2, 7 (which does not divide f = 25) and >= f (one chunk)."""
    model = build_mlp(30, 5, hidden=(16, 8), seed=3, dtype=dtype)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((25, 6, 30)).astype(dtype)
    y = rng.integers(0, 5, (25, 6))
    chunk_budget(monkeypatch, model, x.shape, width)
    stacked = ModelGradientComputer(model)
    params = stacked.initial_params()
    loop_grads, loop_losses = looped(model, params, list(zip(x, y)))
    chunks = count_chunks(model)

    stack_grads, stack_losses = stacked.batched(params, (x, y))
    assert chunks == [min(width, 25 - lo) for lo in range(0, 25, width)]
    assert stack_grads.dtype == stack_losses.dtype == np.dtype(dtype)
    assert bits(stack_grads).tobytes() == bits(loop_grads).tobytes()
    assert bits(stack_losses).tobytes() == bits(loop_losses).tobytes()


class FailingOnCall(SoftmaxCrossEntropy):
    """Cross entropy that raises on its ``fail_on``-th stacked call."""

    def __init__(self, fail_on):
        super().__init__()
        self.calls, self.fail_on = 0, fail_on

    def per_file_value_and_gradient(self, predictions, targets):
        self.calls += 1
        if self.calls == self.fail_on:
            raise ConfigurationError("the loss failed on purpose")
        return super().per_file_value_and_gradient(predictions, targets)


@pytest.mark.parametrize("first", sorted(first_layer_models("float64")))
def test_a_loss_raising_in_the_second_chunk_leaves_no_activations(monkeypatch, first):
    model = first_layer_models("float64")[first]
    x = np.random.default_rng(0).standard_normal((7, 5, 30))
    chunk_budget(monkeypatch, model, x.shape, 3)
    loss = FailingOnCall(fail_on=2)
    with pytest.raises(ConfigurationError, match="on purpose"):
        model.per_file_loss_and_gradients(
            RoundFiles.coerce((x, np.zeros((7, 5), dtype=np.int64))), loss
        )
    assert loss.calls == 2
    assert [layer._cache for layer in model.layers] == [None] * len(model.layers)


class FailingPlainLoss(SoftmaxCrossEntropy):
    """Cross entropy whose plain (one-batch) gradient raises."""

    def value_and_gradient(self, predictions, targets):
        raise ConfigurationError("the loss failed on purpose")


@pytest.mark.parametrize("first", sorted(first_layer_models("float64")))
def test_evaluation_and_the_plain_gradient_leave_no_cache(monkeypatch, first):
    """``evaluate_model`` runs no backward pass, and ``loss_and_gradient``'s
    stops at the first layer with parameters, so each drops what its forward
    pass left on the layers (a leading ``ReLU``'s mask too), as does a plain
    pass that raised; and what they return does not move: the metrics are
    those of the same batches scored by hand, and the gradient is the
    stacked pass's, bit for bit."""
    model = first_layer_models("float64")[first]
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((300, 30)), rng.integers(0, 5, 300)
    monkeypatch.setattr(metrics_module, "_EVAL_BATCH", 128)
    metrics = evaluate_model(model, x, y)
    assert [layer._cache for layer in model.layers] == [None] * len(model.layers)
    correct = total = 0.0
    for lo in range(0, 300, 128):
        logits, labels = model.forward(x[lo : lo + 128]), y[lo : lo + 128]
        correct += top1_accuracy(logits, labels) * labels.size
        total += cross_entropy_loss(logits, labels) * labels.size
    model.release()
    assert metrics == {"accuracy": correct / 300, "loss": total / 300}

    loss = SoftmaxCrossEntropy()
    value, gradient = model.loss_and_gradient(x[:16], y[:16], loss)
    assert [layer._cache for layer in model.layers] == [None] * len(model.layers)
    losses, stacked = model.per_file_loss_and_gradients(
        RoundFiles.coerce((x[None, :16], y[None, :16])), loss
    )
    assert bits(losses[0]) == bits(np.float64(value))
    assert np.array_equal(bits(stacked[0]), bits(gradient))
    with pytest.raises(ConfigurationError, match="on purpose"):
        model.loss_and_gradient(x[:16], y[:16], FailingPlainLoss())
    assert [layer._cache for layer in model.layers] == [None] * len(model.layers)


def test_targets_must_cover_every_file():
    """The model takes its files as one :class:`RoundFiles`, which checks the
    targets against the inputs once, before anything is gathered."""
    x = np.zeros((4, 6, 30))
    with pytest.raises(TrainingError, match=r"\(4, 6, 30\) and \(5, 6\)"):
        RoundFiles.coerce((x, np.zeros((5, 6), dtype=np.int64)))


def test_small_batches_run_as_one_chunk():
    """Every e2e workload but the compute-bound one: 25 files of 8 samples,
    up to the 256-wide MLP, fit one chunk; 25 files of 256 samples do not."""
    for hidden in ((64, 64), (256, 256)):
        model = build_mlp(100, 10, hidden=hidden, seed=0)
        assert model._files_per_chunk((25, 8, 100)) >= 25
    assert 1 < build_mlp(100, 10, hidden=(64, 64), seed=0)._files_per_chunk((25, 256, 100)) < 25


# --------------------------------------------------------------------------- #
# One representation of a round's files
# --------------------------------------------------------------------------- #
def small_trainer(partition=None, **sections):
    """MOLS K = 15 (f = 25), batch 100: 25 files of 4 samples of dimension 8."""
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
        **sections,
    })).build_trainer()


#: ``small_trainer``'s stacked inputs, and the nine chunks of three files
#: (the last one file) its pass runs under ``chunk_budget(..., 3)``
ROUND_SHAPE, CHUNK_SAMPLES = (25, 4, 8), [12] * 8 + [4]


def record_gathers(sampler, model):
    """Shim ``sampler.batch_data``: every index array it gathers, each with
    whether the model's per-file gradient pass was running at the time."""
    gathers, inside = [], [False]
    batch_data, gradient_pass = sampler.batch_data, model.per_file_loss_and_gradients

    def gathering(indices):
        gathers.append((np.array(indices), inside[0]))
        return batch_data(indices)

    def passing(*args, **kwargs):
        inside[0] = True
        try:
            return gradient_pass(*args, **kwargs)
        finally:
            inside[0] = False

    sampler.batch_data, model.per_file_loss_and_gradients = gathering, passing
    return gathers


def record_chunks(model):
    """Shim the model's per-chunk pass: a copy of every chunk it was handed."""
    seen, original = [], model._stacked_pass

    def recording(x, y, *args):
        seen.append((x.copy(), y.copy()))
        return original(x, y, *args)

    model._stacked_pass = recording
    return seen


@pytest.mark.parametrize(
    "partition", [None, {"kind": "dirichlet", "alpha": 0.5}], ids=["iid", "sharded"]
)
def test_each_chunk_is_one_gather_through_the_sampler(monkeypatch, partition):
    """A round is its index matrix until the pass reads it: one
    ``batch_data`` call per chunk, inside the pass, covering the batch once
    in file order, and handing the pass what one whole-batch gather would."""
    trainer = small_trainer(partition)
    model = trainer.gradient_computer.model
    chunk_budget(monkeypatch, model, ROUND_SHAPE, 3)
    batch_data = trainer.sampler.batch_data
    gathers, chunks = record_gathers(trainer.sampler, model), record_chunks(model)

    files = trainer._next_files()
    file_indices = list(files.indices)
    assert isinstance(files, RoundFiles) and files.shape == ROUND_SHAPE
    assert sum(inputs.shape[0] for inputs, _ in files) == 100  # counted from the indices
    assert gathers == []
    trainer.cluster.run_round_tensor(trainer.server.broadcast(), files, 0)

    assert [indices.size for indices, _ in gathers] == CHUNK_SAMPLES
    assert all(inside for _, inside in gathers)
    batch = np.concatenate(file_indices)
    assert np.concatenate([indices for indices, _ in gathers]).tobytes() == batch.tobytes()
    whole_inputs, whole_labels = batch_data(batch)
    assert np.concatenate([x for x, _ in chunks]).tobytes() == whole_inputs.tobytes()
    assert np.concatenate([y for _, y in chunks]).tobytes() == whole_labels.tobytes()


def assert_rows_are_the_per_file_oracle(computer, params, files, file_indices, batch_data):
    """Every gradient row and loss equals ``computer``'s model run file by
    file on the file's samples cast to the model's dtype, byte for byte."""
    oracle = ModelGradientComputer(copy.deepcopy(computer.model))
    gradients, losses = computer.batched(params, files)
    assert gradients.dtype == np.float32
    for i, indices in enumerate(file_indices):
        inputs, labels = batch_data(indices)
        gradient, value = oracle(params, inputs.astype(np.float32), labels)
        assert gradient.tobytes() == gradients[i].tobytes()
        assert np.float32(value).tobytes() == losses[i].tobytes()


def test_a_float32_run_trains_on_float32_data_and_keeps_its_gradients(monkeypatch):
    """The runner stores a float32 run's data in float32 — the float64
    draw rounded once — so no chunk is converted after its gather, and every
    row still equals the per-file oracle."""
    trainer = small_trainer(dtype="float32")
    computer = trainer.gradient_computer
    assert computer.model.dtype == np.float32
    inputs = trainer.sampler.dataset.inputs
    assert inputs.dtype == np.float32 and not inputs.flags.writeable
    float64_inputs = small_trainer().sampler.dataset.inputs
    assert inputs.tobytes() == float64_inputs.astype(np.float32).tobytes()
    chunk_budget(monkeypatch, computer.model, ROUND_SHAPE, 3)
    files = trainer._next_files()
    assert_rows_are_the_per_file_oracle(
        computer, trainer.server.broadcast(), files, files.indices, trainer.sampler.batch_data
    )


def test_a_float32_model_on_float64_data_keeps_its_gradients(monkeypatch):
    """Data handed in as float64 is converted to the model's dtype chunk by
    chunk, after each gather: every row equals the per-file oracle on the
    file's samples cast to float32, byte for byte."""
    computer = small_trainer(dtype="float32").gradient_computer
    dataset = make_gaussian_mixture(350, num_classes=3, dim=8, seed=0)
    assert dataset.inputs.dtype == np.float64
    sampler = BatchSampler(dataset, batch_size=100, num_files=ROUND_SHAPE[0], seed=0)
    chunk_budget(monkeypatch, computer.model, ROUND_SHAPE, 3)
    file_indices = sampler.next_batch_files()
    files = RoundFiles(
        np.stack(file_indices), (dataset.inputs, dataset.labels), sampler.batch_data
    )
    assert_rows_are_the_per_file_oracle(
        computer, computer.initial_params(), files, file_indices, sampler.batch_data
    )


def test_an_async_round_gathers_only_inside_the_pass(monkeypatch):
    """The event-driven round times arrivals from each file's sample count,
    read off the indices: no second gather."""
    trainer = small_trainer(runtime={"quorum": 2})
    assert trainer.cluster.runtime is not None
    model = trainer.gradient_computer.model
    chunk_budget(monkeypatch, model, ROUND_SHAPE, 3)
    gathers = record_gathers(trainer.sampler, model)
    trainer.run_iteration(0)
    assert [indices.size for indices, _ in gathers] == CHUNK_SAMPLES
    assert all(inside for _, inside in gathers)


def test_coerce_takes_every_calling_form_and_keeps_round_files_as_is():
    model_fn = MODELS["mlp"]
    computer = ModelGradientComputer(model_fn())
    params = computer.initial_params()
    pairs = make_files(3)
    inputs = np.stack([x for x, _ in pairs])
    labels = np.stack([y for _, y in pairs])
    expected, expected_losses = (a.copy() for a in computer.batched(params, pairs))

    files = RoundFiles.coerce((inputs, labels))
    assert RoundFiles.coerce(files) is files and np.shares_memory(files.pool[0], inputs)
    # a *list* of the two stacked arrays used to be taken for two files
    for form in (files, [inputs, labels], dict(enumerate(pairs)), iter(pairs)):
        gradients, losses = computer.batched(params, form)
        assert np.array_equal(gradients, expected) and np.array_equal(losses, expected_losses)

    pooled = RoundFiles.coerce(pairs)
    assert len(pooled) == 3
    assert pooled.samples_per_file.tolist() == [x.shape[0] for x, _ in pooled] == [6, 6, 6]
    for (x, y), (rows_x, rows_y) in zip(pairs, pooled):
        assert np.array_equal(np.asarray(rows_x), x) and np.array_equal(np.asarray(rows_y), y)


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
        (
            [(np.zeros((4, 30)), np.zeros(4)), (np.zeros((2, 30)), np.zeros(2))],
            r"files must all have the same size, got sizes \[4, 2\]",
        ),
    ],
    ids=[
        "no-files", "no-stacked-files", "stacked-empty", "pair-empty", "leading-axes",
        "labels-1d", "inputs-1d", "dict-keys", "unequal-sizes",
    ],
)
def test_coerce_names_what_it_was_given(files, message):
    computer = ModelGradientComputer(MODELS["mlp"]())
    with pytest.raises(TrainingError, match=message):
        computer.batched(computer.initial_params(), files)
