"""Core ByzShield logic: distortion analysis and robust training pipelines.

* :mod:`repro.core.backend` — the dtype/backend seam: the supported working
  dtypes (``float32``/``float64``), resolution of user-facing dtype specs and
  the dtype-preserving coercion helpers every numeric kernel routes through.
* :mod:`repro.core.distortion` — how many file gradients an omniscient
  adversary controlling ``q`` workers can corrupt (``c_max``, ``ε̂``, the
  ``γ`` bound and the paper's comparison tables).
* :mod:`repro.core.pipelines` — the one gradient-aggregation pipeline
  (paper Algorithm 1: majority-vote every file, apply a robust rule to the
  winners) that ByzShield, DETOX, DRACO and the plain robust-aggregation
  baseline each run over their own assignment.

The re-exports below resolve lazily (PEP 562) so that leaf modules — most
importantly :mod:`repro.core.backend`, which sits underneath
:mod:`repro.utils.arrays` — can be imported without pulling the whole
pipeline stack (and its aggregation/utils dependencies) into a cycle.
"""

import importlib

_EXPORTS = {
    "DistortionResult": "repro.core.distortion",
    "majority_threshold": "repro.core.distortion",
    "distorted_files": "repro.core.distortion",
    "max_distortion": "repro.core.distortion",
    "claim2_exact_c_max": "repro.core.distortion",
    "distortion_comparison_table": "repro.core.distortion",
    "RoundOutcome": "repro.core.pipelines",
    "AggregationPipeline": "repro.core.pipelines",
    "VoteTensor": "repro.core.vote_tensor",
    "DEFAULT_DTYPE": "repro.core.backend",
    "resolve_dtype": "repro.core.backend",
    "ensure_float": "repro.core.backend",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # cache so __getattr__ runs once per name
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
