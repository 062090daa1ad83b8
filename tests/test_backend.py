"""Unit tests for the dtype/backend seam (:mod:`repro.core.backend`)."""

import numpy as np
import pytest

from repro.core.backend import (
    DEFAULT_DTYPE,
    SUPPORTED_DTYPES,
    bit_view_dtype,
    ensure_float,
    resolve_dtype,
)
from repro.exceptions import ConfigurationError


def test_default_dtype_is_float64():
    assert DEFAULT_DTYPE == np.dtype(np.float64)
    assert sorted(SUPPORTED_DTYPES) == ["float32", "float64"]


@pytest.mark.parametrize(
    "spec, expected",
    [
        (None, np.float64),
        ("float32", np.float32),
        ("float64", np.float64),
        (np.float32, np.float32),
        (np.float64, np.float64),
        (np.dtype(np.float32), np.float32),
        (np.dtype("<f8"), np.float64),
    ],
)
def test_resolve_dtype_accepted_specs(spec, expected):
    assert resolve_dtype(spec) == np.dtype(expected)


@pytest.mark.parametrize(
    "spec", ["float16", "f2", "int64", np.int32, np.float16, complex, object()]
)
def test_resolve_dtype_rejects_unsupported(spec):
    with pytest.raises(ConfigurationError):
        resolve_dtype(spec)




def test_ensure_float_preserves_supported_dtypes_without_copy():
    for dtype in (np.float32, np.float64):
        arr = np.arange(5, dtype=dtype)
        out = ensure_float(arr)
        assert out is arr  # passthrough, no copy, no promotion


def test_ensure_float_coerces_unsupported_to_default():
    for source in ([1, 2, 3], np.arange(3, dtype=np.int64), np.ones(3, dtype=bool)):
        out = ensure_float(source)
        assert out.dtype == DEFAULT_DTYPE
    half = np.arange(3, dtype=np.float16)
    assert ensure_float(half).dtype == DEFAULT_DTYPE


def test_ensure_float_explicit_dtype_converts():
    arr = np.arange(4, dtype=np.float64)
    out = ensure_float(arr, dtype="float32")
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out, arr.astype(np.float32))
    # explicit dtype equal to the input dtype is a no-copy passthrough
    assert ensure_float(out, dtype=np.float32) is out


def test_ensure_float_explicit_dtype_rejects_unsupported():
    with pytest.raises(ConfigurationError):
        ensure_float(np.arange(3), dtype="float16")


def test_bit_view_dtype_widths():
    assert bit_view_dtype(np.float64) == np.dtype(np.uint64)
    assert bit_view_dtype("float32") == np.dtype(np.uint32)
    with pytest.raises(ConfigurationError):
        bit_view_dtype(np.int32)


def test_bit_view_roundtrips_payload_bits():
    for dtype in (np.float32, np.float64):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal(16).astype(dtype)
        view = arr.view(bit_view_dtype(dtype))
        back = view.view(dtype)
        assert np.array_equal(back, arr)


def test_core_package_reexports_backend_lazily():
    # repro.core uses PEP 562 lazy exports so repro.core.backend can be
    # imported from low-level modules without executing the pipeline stack.
    import repro.core as core

    assert core.DEFAULT_DTYPE == DEFAULT_DTYPE
    assert core.resolve_dtype("float32") == np.dtype(np.float32)
    assert core.ensure_float is ensure_float
    with pytest.raises(AttributeError):
        core.does_not_exist
    assert "VoteTensor" in dir(core)
