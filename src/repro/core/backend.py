"""Dtype/backend seam for the numeric substrate.

Every tensor on the hot path — model parameters, per-file gradients, the
:class:`~repro.core.vote_tensor.VoteTensor`, the aggregation kernels — used to
hard-code ``np.float64``.  This module centralizes the floating-point policy
so the same round loop runs in ``float32`` or ``float64`` end to end:

* :func:`resolve_dtype` maps a user-facing dtype spec (``None``, a name such
  as ``"float32"``, a NumPy dtype or scalar type) onto one of the supported
  working dtypes, defaulting to ``float64`` — the paper's exact-arithmetic
  baseline, which all golden traces pin bit-exactly.
* :func:`ensure_float` coerces arbitrary array-likes onto a supported float
  dtype while *preserving* ``float32``/``float64`` inputs instead of silently
  promoting everything to ``float64``.  Generic kernels (majority voting,
  robust aggregators, the optimizer) route their input normalization through
  it so a ``float32`` round stays ``float32`` from the worker's backward pass
  to the PS update.
* :func:`bit_view_dtype` names the unsigned-integer view used for bit-exact
  equality (``uint64`` for ``float64`` payloads, ``uint32`` for ``float32``),
  which the vectorized majority-vote kernel relies on.

Components with their own parameter storage (layers, ``VoteTensor``) accept a
``dtype`` argument resolved here once at construction and then coerce external
inputs to *their* dtype; free-standing helpers preserve whatever supported
float dtype they are handed.  The run's dtype enters at the data: the
synthetic generators store their rows in it, and only their draws are made
in :data:`DRAW_DTYPE`.

This module is the only place a float dtype is named
(``tests/test_source_invariants.py``, DTYPE-001).  A value that is float64
whatever the working dtype is a named constant here: :data:`DRAW_DTYPE` and
:data:`CLOCK_DTYPE` (the event simulation's clock).  Trace digests hash an
array in its own width (:mod:`repro.utils.digest`), so they need none.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "DEFAULT_DTYPE",
    "DRAW_DTYPE",
    "CLOCK_DTYPE",
    "SUPPORTED_DTYPES",
    "resolve_dtype",
    "ensure_float",
    "bit_view_dtype",
]

#: the repo-wide default working dtype (the paper baseline; golden traces
#: are recorded at this dtype and replay bit-exactly)
DEFAULT_DTYPE: np.dtype = np.dtype(np.float64)

#: the dtype the synthetic data generators and the noise corruption draw
#: and sum in, whatever the run's working dtype: a float32 run's dataset (or
#: noisy payload) is this draw rounded once as each row is stored, so both
#: dtypes train on the same numbers
DRAW_DTYPE: np.dtype = np.dtype(np.float64)

#: the dtype of every arrival and deadline array in the event simulation:
#: the simulated clock is wall-time seconds, float64 whatever the working
#: gradient dtype
CLOCK_DTYPE: np.dtype = np.dtype(np.float64)

#: name -> dtype of the working dtypes the round loop supports end to end
SUPPORTED_DTYPES: dict[str, np.dtype] = {
    "float32": np.dtype(np.float32),
    "float64": np.dtype(np.float64),
}

#: float dtype -> unsigned integer dtype of the same width (bit-exact views)
_BIT_VIEWS: dict[np.dtype, np.dtype] = {
    np.dtype(np.float32): np.dtype(np.uint32),
    np.dtype(np.float64): np.dtype(np.uint64),
}


def resolve_dtype(dtype: object | None = None) -> np.dtype:
    """Resolve a dtype spec to a supported working dtype.

    ``None`` selects :data:`DEFAULT_DTYPE`; otherwise the spec may be a name
    (``"float32"``/``"float64"``), a NumPy dtype or a scalar type.  Anything
    else raises :class:`~repro.exceptions.ConfigurationError` — the seam
    supports exactly the two IEEE binary formats the kernels are written for.
    """
    if dtype is None:
        return DEFAULT_DTYPE
    if isinstance(dtype, str):
        try:
            return SUPPORTED_DTYPES[dtype]
        except KeyError:
            raise ConfigurationError(
                f"unsupported dtype {dtype!r}; expected one of "
                f"{sorted(SUPPORTED_DTYPES)}"
            ) from None
    try:
        resolved = np.dtype(dtype)
    except TypeError as exc:
        raise ConfigurationError(f"unsupported dtype {dtype!r}: {exc}") from exc
    if resolved not in _BIT_VIEWS:
        raise ConfigurationError(
            f"unsupported dtype {resolved}; expected one of "
            f"{sorted(SUPPORTED_DTYPES)}"
        )
    return resolved


def ensure_float(array: object, dtype: object | None = None) -> np.ndarray:
    """Coerce ``array`` onto a supported float dtype.

    With an explicit ``dtype`` the array is converted to it.  Without one,
    ``float32``/``float64`` inputs are passed through unchanged (no copy, no
    promotion) and everything else — ints, bools, Python lists — is coerced
    to :data:`DEFAULT_DTYPE`.
    """
    if dtype is not None:
        return np.asarray(array, dtype=resolve_dtype(dtype))
    arr = np.asarray(array)
    if arr.dtype in _BIT_VIEWS:
        return arr
    return arr.astype(DEFAULT_DTYPE)


def bit_view_dtype(dtype: object) -> np.dtype:
    """Unsigned integer dtype whose bits mirror the given float dtype."""
    return _BIT_VIEWS[resolve_dtype(dtype)]
