"""Deep-learning accuracy experiments (paper Figures 2–11).

Each figure compares ByzShield against baseline and DETOX defenses under one
attack and a set of Byzantine budgets ``q``.  A figure is a row of the table
below; :func:`figure_scenarios` turns it into one
:class:`~repro.scenarios.spec.ScenarioSpec` per curve (``spec.name`` is the
curve label), and :func:`run_accuracy_figure` trains each through the
:class:`~repro.scenarios.runner.ScenarioRunner` — the same route as every
other run in the library, so a curve has a spec digest and can be lifted out
(``spec.to_json()``) and re-run alone with ``repro scenario run``.  All curves
of a figure share the seed, hence the dataset, ``w₀`` and the batch sequence.

Scales
------
The paper's experiments train ResNet-18 on CIFAR-10 for ~1000 iterations on
EC2; offline we provide three scales of the same experiment on the synthetic
substrate:

* ``"tiny"``   — seconds per curve; used by the unit tests;
* ``"small"``  — tens of seconds per figure; used by the benchmark harness;
* ``"medium"`` — minutes per figure; closer convergence behaviour for reports.
"""

from __future__ import annotations

from typing import Any

from repro.core.distortion import majority_threshold
from repro.exceptions import ConfigurationError
from repro.scenarios.runner import ScenarioResult, ScenarioRunner
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "SCALE_PRESETS",
    "available_figures",
    "figure_scenarios",
    "run_accuracy_figure",
]


#: ``data`` / ``model`` / ``training`` sections of a curve's spec, per scale.
#: Batch sizes are multiples of 75 so they divide evenly into files for every
#: cluster used by the figures (f = 25 for ByzShield, K = 15 or 25 for the
#: baselines, K/r = 5 for DETOX).
SCALE_PRESETS: dict[str, dict[str, dict[str, Any]]] = {
    "tiny": {
        "data": {"kind": "gaussian", "num_train": 500, "num_test": 200},
        "model": {"hidden": [16]},
        "training": {"batch_size": 75, "num_iterations": 10, "eval_every": 5},
    },
    "small": {
        "data": {"kind": "gaussian", "num_train": 1500, "num_test": 400},
        "model": {"hidden": [32]},
        "training": {"batch_size": 150, "num_iterations": 60, "eval_every": 10},
    },
    "medium": {
        "data": {"kind": "images", "num_train": 4000, "num_test": 1000},
        "model": {"hidden": [64, 32]},
        "training": {"batch_size": 300, "num_iterations": 300, "eval_every": 20},
    },
}
#: What every scale shares: the 10-class substrate (a 32-dimensional Gaussian
#: mixture, or 8x8x3 synthetic images) and the paper's (x, y, z) schedule.
_DATA = {"num_classes": 10, "dim": 32, "separation": 1.0, "image_size": 8, "channels": 3}
_TRAINING = {"learning_rate": 0.05, "lr_decay": 0.96, "lr_period": 15, "momentum": 0.9}

_ATTACK_PARAMS: dict[str, dict[str, Any]] = {
    "alie": {},
    "constant": {"value": -1.0},
    "reversed_gradient": {"scale": 100.0},
}

#: K -> (replication r, ByzShield's expander placement).  DETOX groups the same
#: K workers by FRC with the same r; the baseline has no redundancy.
_GEOMETRY: dict[int, tuple[int, dict[str, Any]]] = {
    25: (5, {"scheme": "ramanujan", "params": {"m": 5, "s": 5}}),  # Case 2, f = 25
    15: (3, {"scheme": "mols", "params": {"load": 5, "replication": 3}}),  # f = 25
}

# The families of curves: (label prefix, pipeline kind, aggregator).
_Family = tuple[str, str, str]
_BYZSHIELD = ("ByzShield", "byzshield", "median")
_MEDIAN = ("Median", "vanilla", "median")
_BULYAN = ("Bulyan", "vanilla", "bulyan")
_MULTI_KRUM = ("Multi-Krum", "vanilla", "multi_krum")
_SIGNSGD = ("signSGD", "vanilla", "signsgd")
_DETOX_MOM = ("DETOX-MoM", "detox", "median_of_means")
_DETOX_MULTI_KRUM = ("DETOX-Multi-Krum", "detox", "multi_krum")
_DETOX_SIGNSGD = ("DETOX-signSGD", "detox", "signsgd")

#: figure -> (K, attack, ((family, q values), ...)); one curve per (family, q).
#: What each figure shows is in ``paper_reference.FIGURE_DESCRIPTIONS``.
_FIGURES: dict[str, tuple[int, str, tuple[tuple[_Family, tuple[int, ...]], ...]]] = {
    "fig2": (25, "alie", ((_MEDIAN, (3, 5)), (_BYZSHIELD, (3, 5)), (_DETOX_MOM, (3, 5)))),
    "fig3": (25, "alie", ((_BULYAN, (3, 5)), (_BYZSHIELD, (3, 5)))),
    "fig4": (
        25,
        "alie",
        ((_MULTI_KRUM, (3, 5)), (_BYZSHIELD, (3, 5)), (_DETOX_MULTI_KRUM, (3, 5))),
    ),
    "fig5": (
        25,
        "constant",
        ((_SIGNSGD, (3, 5)), (_BYZSHIELD, (3, 5)), (_DETOX_SIGNSGD, (3, 5))),
    ),
    "fig6": (
        25,
        "reversed_gradient",
        ((_MEDIAN, (3, 9)), (_BYZSHIELD, (3, 9)), (_DETOX_MOM, (3, 9))),
    ),
    # Bulyan needs 4q + 3 votes: inapplicable to K = 25 at q = 9.
    "fig7": (25, "reversed_gradient", ((_BULYAN, (3, 5)), (_BYZSHIELD, (3, 5, 9)))),
    # DETOX's K/r = 5 group winners are too few for Multi-Krum at q = 9.
    "fig8": (
        25,
        "reversed_gradient",
        ((_MULTI_KRUM, (3, 5, 9)), (_BYZSHIELD, (3, 5, 9)), (_DETOX_MULTI_KRUM, (3, 5))),
    ),
    "fig9": (15, "alie", ((_MEDIAN, (2,)), (_BYZSHIELD, (2,)), (_DETOX_MOM, (2,)))),
    "fig10": (15, "alie", ((_BULYAN, (2,)), (_BYZSHIELD, (2,)))),
    "fig11": (
        15,
        "alie",
        ((_MULTI_KRUM, (2,)), (_BYZSHIELD, (2,)), (_DETOX_MULTI_KRUM, (2,))),
    ),
}


def available_figures() -> list[str]:
    """Names of the accuracy figures this module can regenerate."""
    return sorted(_FIGURES)


def _curve(
    label: str, num_workers: int, kind: str, aggregator: str, attack: str, q: int
) -> dict[str, Any]:
    """The cluster, pipeline and attack sections of one curve."""
    replication, expander = _GEOMETRY[num_workers]
    detox = kind == "detox"
    if kind == "byzshield":
        cluster = expander
    elif detox:
        cluster = {
            "scheme": "frc",
            "params": {"num_workers": num_workers, "replication": replication},
        }
    else:
        cluster = {"scheme": "baseline", "params": {"num_workers": num_workers}}
    aggregator_params: dict[str, Any] = {}
    if aggregator == "median_of_means":
        # DETOX's second stage buckets the K/r group winners; an odd bucket
        # count >= 3 keeps the median well defined and tolerant of one
        # corrupted bucket (with 2 buckets the "median" is their average and
        # a single corrupted group poisons the update).
        groups = min(3, num_workers // replication) if detox else max(1, num_workers // 3)
        aggregator_params = {"num_groups": groups}
    elif aggregator in ("multi_krum", "bulyan"):
        # After the per-group vote the adversary controls at most
        # floor(q / r') of DETOX's group gradients.
        corrupted = q // majority_threshold(replication) if detox else q
        aggregator_params = {"num_byzantine": corrupted}
    return {
        "name": label,
        "cluster": cluster,
        "pipeline": {
            "kind": kind,
            "aggregator": aggregator,
            "aggregator_params": aggregator_params,
        },
        "attack": {
            "name": attack,
            "params": _ATTACK_PARAMS[attack],
            "selection": "omniscient",
            "schedule": {"kind": "static", "q": q},
        },
    }


def figure_scenarios(
    figure_id: str, scale: str = "small", seed: int = 0
) -> tuple[ScenarioSpec, ...]:
    """One :class:`ScenarioSpec` per curve of ``"fig2"`` ... ``"fig11"``.

    ``spec.name`` is the curve label (e.g. ``"ByzShield, q=5"``); ``scale`` is
    one of :data:`SCALE_PRESETS` and ``seed`` is shared by every curve so the
    comparison is paired.
    """
    key = figure_id.lower()
    if key not in _FIGURES:
        raise ConfigurationError(
            f"unknown figure {figure_id!r}; available: {available_figures()}"
        )
    if scale not in SCALE_PRESETS:
        raise ConfigurationError(
            f"unknown scale {scale!r}; available: {sorted(SCALE_PRESETS)}"
        )
    preset = SCALE_PRESETS[scale]
    sizes = {
        "seed": seed,
        "data": {**preset["data"], **_DATA},
        "model": preset["model"],
        "training": {**preset["training"], **_TRAINING},
    }
    num_workers, attack, families = _FIGURES[key]
    return tuple(
        ScenarioSpec.from_dict(
            {**_curve(f"{prefix}, q={q}", num_workers, kind, aggregator, attack, q), **sizes}
        )
        for (prefix, kind, aggregator), q_values in families
        for q in q_values
    )


def run_accuracy_figure(
    figure_id: str,
    scale: str = "small",
    seed: int = 0,
    run_filter: "list[str] | None" = None,
) -> dict[str, ScenarioResult]:
    """Train every curve of a figure and return its result keyed by label.

    Parameters
    ----------
    figure_id:
        ``"fig2"`` ... ``"fig11"``.
    scale:
        One of :data:`SCALE_PRESETS` (``"tiny"``, ``"small"``, ``"medium"``).
    seed:
        Controls dataset generation, model initialization and batch order —
        shared by every curve so the comparison is paired.
    run_filter:
        Optional list of curve labels to run (others are skipped); a label
        the figure does not have is a :class:`ConfigurationError`.
    """
    specs = figure_scenarios(figure_id, scale=scale, seed=seed)
    if run_filter is not None:
        labels = [spec.name for spec in specs]
        unknown = [label for label in run_filter if label not in labels]
        if unknown:
            raise ConfigurationError(
                f"{figure_id} has no curve {unknown}; its curves are {labels}"
            )
        specs = tuple(spec for spec in specs if spec.name in run_filter)
    return {spec.name: ScenarioRunner(spec).run() for spec in specs}
