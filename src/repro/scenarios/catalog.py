"""The named scenario matrix pinned by the golden-trace suite.

Every entry is a complete :class:`~repro.scenarios.spec.ScenarioSpec` sized
to run in well under a second: a tiny Gaussian-mixture dataset, a small MLP,
and a handful of training rounds.  Jointly the matrix covers

* **schemes** — MOLS (K=15), Ramanujan Case 2 (K=25), FRC/DETOX, FRC/DRACO
  and the no-redundancy baseline;
* **attacks** — ALIE, constant, reversed gradient, Gaussian noise, uniform
  random, plus the adaptive zoo: inner-product manipulation, sign-flip
  collusion, Fang-style aggregator-aware payloads (median / trimmed-mean /
  Krum) and the AGR-agnostic min-max / min-sum attacks;
* **adversary schedules** — static, ramping ``q``, and a rotating
  compromised window;
* **data partitions** — the paper's IID batching (default) and non-IID
  file shards (Dirichlet label skew, quantity skew);
* **faults** — exponential/fixed stragglers (with and without timeouts),
  crash-stop churn, and message corruption (zero/scale/noise);
* **compression** — top-k and sign uplink compression;
* **runtimes** — the lockstep synchronous round (default) and the
  event-driven engine with deadline cutoffs, per-file quorums and
  partial (arrived-copies-only) aggregation;
* **topologies** — flat single-level aggregation (default) and
  hierarchical two-level rounds (:class:`~repro.cluster.topology.GroupTopology`)
  with per-level adversary budgets, including group-level quorum closing
  under the async runtime and blockwise (coordinate-sharded) vote kernels.

Names are stable identifiers: golden traces live at
``tests/golden/<name>.json`` and are regenerated with
``repro scenario record``.
"""

from __future__ import annotations

from typing import Any

from repro.exceptions import ConfigurationError
from repro.scenarios.spec import ScenarioSpec

__all__ = ["scenario_names", "get_scenario", "all_scenarios"]


def _spec(
    name: str,
    cluster: dict[str, Any],
    pipeline: dict[str, Any],
    attack: "dict[str, Any] | None" = None,
    faults: "list[dict[str, Any]] | None" = None,
    compression: "dict[str, Any] | None" = None,
    description: str = "",
    **overrides: Any,
) -> dict[str, Any]:
    data: dict[str, Any] = {
        "name": name,
        "seed": 0,
        "cluster": cluster,
        "pipeline": pipeline,
        "data": {"kind": "gaussian", "num_train": 300, "num_test": 100,
                 "num_classes": 4, "dim": 12, "separation": 3.0},
        "model": {"hidden": [16]},
        "training": {"batch_size": 75, "num_iterations": 4, "eval_every": 2},
        "description": description,
    }
    if attack is not None:
        data["attack"] = attack
    if faults:
        data["faults"] = faults
    if compression is not None:
        data["compression"] = compression
    data.update(overrides)
    return data


_MOLS = {"scheme": "mols", "params": {"load": 5, "replication": 3}}
_RAMANUJAN = {"scheme": "ramanujan", "params": {"m": 5, "s": 5}}
_FRC = {"scheme": "frc", "params": {"num_workers": 15, "replication": 3}}
_BASELINE = {"scheme": "baseline", "params": {"num_workers": 15}}

_BYZSHIELD_MEDIAN = {"kind": "byzshield", "aggregator": "median"}


def _catalog() -> dict[str, dict[str, Any]]:
    entries: list[dict[str, Any]] = [
        # -- MOLS (K=15, l=5, r=3) ------------------------------------------
        _spec(
            "mols-clean",
            _MOLS,
            _BYZSHIELD_MEDIAN,
            description="Fault-free ByzShield/MOLS reference run",
        ),
        _spec(
            "mols-alie-omniscient",
            _MOLS,
            _BYZSHIELD_MEDIAN,
            attack={"name": "alie", "selection": "omniscient",
                    "schedule": {"kind": "static", "q": 2}},
            description="Paper threat model: omniscient ALIE at fixed q",
        ),
        _spec(
            "mols-constant-ramping",
            _MOLS,
            _BYZSHIELD_MEDIAN,
            attack={"name": "constant", "params": {"value": -1.0},
                    "selection": "omniscient",
                    "schedule": {"kind": "ramping", "q": 0, "q_end": 4, "period": 1}},
            description="Escalating compromise: q ramps 0 -> 4 over the run",
        ),
        _spec(
            "mols-revgrad-rotating",
            _MOLS,
            _BYZSHIELD_MEDIAN,
            attack={"name": "reversed_gradient", "params": {"scale": 100.0},
                    "selection": "rotating",
                    "schedule": {"kind": "rotating", "q": 3, "period": 1, "stride": 2}},
            description="Rotating compromised window, stride 2 per round",
        ),
        _spec(
            "mols-alie-stragglers",
            _MOLS,
            _BYZSHIELD_MEDIAN,
            attack={"name": "alie", "selection": "omniscient",
                    "schedule": {"kind": "static", "q": 2}},
            faults=[{"kind": "stragglers",
                     "params": {"count": 3, "delay_model": "exponential", "delay": 0.5}}],
            description="ALIE plus exponential stragglers (no timeout)",
        ),
        _spec(
            "mols-alie-straggler-timeout",
            _MOLS,
            _BYZSHIELD_MEDIAN,
            attack={"name": "alie", "selection": "omniscient",
                    "schedule": {"kind": "static", "q": 2}},
            faults=[{"kind": "stragglers",
                     "params": {"count": 3, "delay_model": "exponential",
                                "delay": 1.0, "timeout": 0.8}}],
            description="Slow workers abandoned at the PS timeout lose their votes",
        ),
        _spec(
            "mols-noise-dropout",
            _MOLS,
            _BYZSHIELD_MEDIAN,
            attack={"name": "gaussian_noise", "params": {"sigma": 50.0},
                    "selection": "random",
                    "schedule": {"kind": "static", "q": 2}},
            faults=[{"kind": "dropout", "params": {"probability": 0.15, "down_for": 2}}],
            description="Random-selection noise attack under crash-stop churn",
        ),
        _spec(
            "mols-corruption-zero",
            _MOLS,
            _BYZSHIELD_MEDIAN,
            faults=[{"kind": "corruption", "params": {"probability": 0.1, "mode": "zero"}}],
            description="No adversary; 10% of messages torn to zero in flight",
        ),
        _spec(
            "mols-alie-all-faults",
            _MOLS,
            _BYZSHIELD_MEDIAN,
            attack={"name": "alie", "selection": "omniscient",
                    "schedule": {"kind": "static", "q": 2}},
            faults=[
                {"kind": "stragglers",
                 "params": {"count": 2, "delay_model": "fixed", "delay": 0.3}},
                {"kind": "dropout", "params": {"probability": 0.1}},
                {"kind": "corruption",
                 "params": {"probability": 0.05, "mode": "scale", "factor": 10.0}},
            ],
            description="Kitchen sink: ALIE + stragglers + churn + corruption",
        ),
        _spec(
            "mols-constant-topk",
            _MOLS,
            _BYZSHIELD_MEDIAN,
            attack={"name": "constant", "params": {"value": -1.0},
                    "selection": "omniscient",
                    "schedule": {"kind": "static", "q": 2}},
            compression={"name": "topk", "params": {"fraction": 0.5}},
            description="Top-k compressed uplinks under the constant attack",
        ),
        _spec(
            "mols-uniform-trimmed-mean",
            _MOLS,
            {"kind": "byzshield", "aggregator": "trimmed_mean",
             "aggregator_params": {"trim": 3}},
            attack={"name": "uniform_random", "params": {"magnitude": 5.0},
                    "selection": "random",
                    "schedule": {"kind": "static", "q": 3}},
            description="Uniform-random attack vs trimmed-mean second stage",
        ),
        # -- Ramanujan (K=25, l=r=5) ----------------------------------------
        _spec(
            "ramanujan-clean",
            _RAMANUJAN,
            _BYZSHIELD_MEDIAN,
            description="Fault-free K=25 Ramanujan Case-2 reference run",
        ),
        _spec(
            "ramanujan-alie-omniscient",
            _RAMANUJAN,
            _BYZSHIELD_MEDIAN,
            attack={"name": "alie", "selection": "omniscient",
                    "schedule": {"kind": "static", "q": 3}},
            description="Omniscient ALIE on the K=25 cluster",
        ),
        _spec(
            "ramanujan-constant-rotating",
            _RAMANUJAN,
            _BYZSHIELD_MEDIAN,
            attack={"name": "constant", "params": {"value": 2.0},
                    "selection": "rotating",
                    "schedule": {"kind": "rotating", "q": 5, "period": 2, "stride": 3}},
            description="Rotating q=5 window shifting by 3 every 2 rounds",
        ),
        _spec(
            "ramanujan-revgrad-stragglers",
            _RAMANUJAN,
            _BYZSHIELD_MEDIAN,
            attack={"name": "reversed_gradient", "params": {"scale": 100.0},
                    "selection": "omniscient",
                    "schedule": {"kind": "static", "q": 3}},
            faults=[{"kind": "stragglers",
                     "params": {"count": 5, "delay_model": "exponential",
                                "delay": 0.5, "timeout": 1.0}}],
            description="Reversed gradient with timeout-dropped stragglers",
        ),
        _spec(
            "ramanujan-uniform-signsgd",
            _RAMANUJAN,
            {"kind": "byzshield", "aggregator": "signsgd"},
            attack={"name": "uniform_random", "params": {"magnitude": 2.0},
                    "selection": "random",
                    "schedule": {"kind": "static", "q": 3}},
            description="signSGD second stage under uniform-random payloads",
        ),
        # -- DETOX / FRC (K=15, r=3, 5 groups) ------------------------------
        _spec(
            "detox-mom-alie",
            _FRC,
            {"kind": "detox", "aggregator": "median_of_means",
             "aggregator_params": {"num_groups": 3}},
            attack={"name": "alie", "selection": "random",
                    "schedule": {"kind": "static", "q": 2}},
            description="DETOX median-of-means under random-selection ALIE",
        ),
        _spec(
            "detox-multikrum-revgrad-dropout",
            _FRC,
            {"kind": "detox", "aggregator": "multi_krum",
             "aggregator_params": {"num_byzantine": 1}},
            attack={"name": "reversed_gradient", "params": {"scale": 100.0},
                    "selection": "omniscient",
                    "schedule": {"kind": "static", "q": 2}},
            faults=[{"kind": "dropout", "params": {"probability": 0.1, "down_for": 1}}],
            description="DETOX Multi-Krum with reversed gradient and churn",
        ),
        _spec(
            "detox-signsgd-constant-rotating",
            _FRC,
            {"kind": "detox", "aggregator": "signsgd"},
            attack={"name": "constant", "params": {"value": -1.0},
                    "selection": "rotating",
                    "schedule": {"kind": "rotating", "q": 3, "period": 1, "stride": 1}},
            description="DETOX signSGD against a rotating constant attack",
        ),
        # -- DRACO / FRC ----------------------------------------------------
        _spec(
            "draco-clean-stragglers",
            _FRC,
            {"kind": "draco"},
            faults=[{"kind": "stragglers",
                     "params": {"count": 4, "delay_model": "exponential", "delay": 0.4}}],
            description="DRACO exact recovery, perturbed only by stragglers",
        ),
        _spec(
            "draco-constant-q1",
            _FRC,
            {"kind": "draco"},
            attack={"name": "constant", "params": {"value": 5.0},
                    "selection": "omniscient",
                    "schedule": {"kind": "static", "q": 1}},
            description="DRACO at its bound r=3 >= 2q+1 with q=1",
        ),
        # -- Vanilla baseline (K=15, no redundancy) -------------------------
        _spec(
            "vanilla-median-alie",
            _BASELINE,
            {"kind": "vanilla", "aggregator": "median"},
            attack={"name": "alie", "selection": "random",
                    "schedule": {"kind": "static", "q": 2}},
            description="No-redundancy coordinate-median baseline under ALIE",
        ),
        _spec(
            "vanilla-multikrum-revgrad-dropout",
            _BASELINE,
            {"kind": "vanilla", "aggregator": "multi_krum",
             "aggregator_params": {"num_byzantine": 2}},
            attack={"name": "reversed_gradient", "params": {"scale": 100.0},
                    "selection": "random",
                    "schedule": {"kind": "static", "q": 2}},
            faults=[{"kind": "dropout", "params": {"probability": 0.1}}],
            description="Baseline Multi-Krum with churn on top of the attack",
        ),
        _spec(
            "vanilla-mean-sign-compression",
            _BASELINE,
            {"kind": "vanilla", "aggregator": "mean"},
            compression={"name": "sign", "params": {}},
            faults=[{"kind": "stragglers",
                     "params": {"count": 2, "delay_model": "fixed", "delay": 0.25}}],
            description="Unattacked mean baseline with 1-bit sign uplinks",
        ),
        # -- Event-driven async runtime (deadline / quorum) -----------------
        _spec(
            "mols-async-deadline-stragglers",
            _MOLS,
            _BYZSHIELD_MEDIAN,
            faults=[{"kind": "stragglers",
                     "params": {"count": 3, "delay_model": "exponential", "delay": 0.5}}],
            runtime={"deadline": 0.4},
            description="Event-driven PS abandons straggler messages at a 0.4s deadline",
        ),
        _spec(
            "mols-async-quorum",
            _MOLS,
            _BYZSHIELD_MEDIAN,
            attack={"name": "alie", "selection": "omniscient",
                    "schedule": {"kind": "static", "q": 2}},
            faults=[{"kind": "stragglers",
                     "params": {"count": 3, "delay_model": "exponential", "delay": 0.5}}],
            runtime={"quorum": 2},
            description="Files close at 2 of 3 arrived copies; straggler copies reject as late",
        ),
        _spec(
            "ramanujan-async-quorum-partial",
            _RAMANUJAN,
            _BYZSHIELD_MEDIAN,
            attack={"name": "alie", "selection": "omniscient",
                    "schedule": {"kind": "static", "q": 3}},
            faults=[{"kind": "stragglers",
                     "params": {"count": 5, "delay_model": "exponential", "delay": 0.5}}],
            runtime={"quorum": 3, "partial": True},
            description="K=25 quorum-3 rounds voting only over the arrived copies",
        ),
        _spec(
            "detox-async-deadline-quorum",
            _FRC,
            {"kind": "detox", "aggregator": "median_of_means",
             "aggregator_params": {"num_groups": 3}},
            attack={"name": "alie", "selection": "random",
                    "schedule": {"kind": "static", "q": 2}},
            faults=[{"kind": "dropout", "params": {"probability": 0.15, "down_for": 2}},
                    {"kind": "stragglers",
                     "params": {"count": 3, "delay_model": "exponential", "delay": 0.5}}],
            runtime={"deadline": 0.45, "quorum": 2},
            description="DETOX groups close at quorum 2 under churn, 0.45s deadline backstop",
        ),
        _spec(
            "vanilla-async-deadline-partial",
            _BASELINE,
            {"kind": "vanilla", "aggregator": "median"},
            faults=[{"kind": "stragglers",
                     "params": {"count": 4, "delay_model": "exponential", "delay": 0.5}}],
            runtime={"deadline": 0.4, "partial": True},
            description="Baseline median over only the workers that beat the deadline",
        ),
        # -- Hierarchical two-level aggregation -----------------------------
        _spec(
            "mols-hier-groups3-alie",
            _MOLS,
            _BYZSHIELD_MEDIAN,
            attack={"name": "alie", "selection": "omniscient",
                    "schedule": {"kind": "static", "q": 2}},
            topology={"groups": 3, "q_group": 1},
            description="Two-level ByzShield: 3 worker groups, q_group=1 budget, ALIE",
        ),
        _spec(
            "ramanujan-hier-groups5-revgrad",
            _RAMANUJAN,
            _BYZSHIELD_MEDIAN,
            attack={"name": "reversed_gradient", "params": {"scale": 100.0},
                    "selection": "omniscient",
                    "schedule": {"kind": "static", "q": 3}},
            topology={"groups": 5, "q_group": 1},
            description="K=25 hierarchical rounds: 5 groups of 5 under reversed gradient",
        ),
        _spec(
            "ramanujan-hier-async-group-quorum",
            _RAMANUJAN,
            _BYZSHIELD_MEDIAN,
            attack={"name": "alie", "selection": "omniscient",
                    "schedule": {"kind": "static", "q": 3}},
            faults=[{"kind": "stragglers",
                     "params": {"count": 5, "delay_model": "exponential", "delay": 0.5}}],
            runtime={"quorum": 2, "partial": True},
            topology={"groups": 3, "q_group": 1},
            description="Group-level quorum close: a group seals its share of a file at 2 copies and rejects the rest as late",
        ),
        _spec(
            "detox-hier-blockwise",
            _FRC,
            {"kind": "detox", "aggregator": "median_of_means",
             "aggregator_params": {"num_groups": 3},
             "block_size": 4},
            attack={"name": "alie", "selection": "random",
                    "schedule": {"kind": "static", "q": 2}},
            topology={"groups": 5},
            description="DETOX over 5 groups with coordinate-blockwise (block=4) vote kernels",
        ),
        # -- Adversary zoo (adaptive / collusive families) ------------------
        _spec(
            "mols-ipm-omniscient",
            _MOLS,
            _BYZSHIELD_MEDIAN,
            attack={"name": "inner_product", "params": {"epsilon": 0.5},
                    "selection": "omniscient",
                    "schedule": {"kind": "static", "q": 3}},
            description="Inner-product manipulation: collusive -eps*mean payload",
        ),
        _spec(
            "mols-signflip-rotating",
            _MOLS,
            _BYZSHIELD_MEDIAN,
            attack={"name": "sign_flip", "params": {"magnitude": 2.0},
                    "selection": "rotating",
                    "schedule": {"kind": "rotating", "q": 3, "period": 1, "stride": 2}},
            description="Sign-flip collusion from a rotating compromised window",
        ),
        _spec(
            "mols-fang-median",
            _MOLS,
            _BYZSHIELD_MEDIAN,
            attack={"name": "fang", "params": {"defense": "median"},
                    "selection": "omniscient",
                    "schedule": {"kind": "static", "q": 4}},
            description="Fang adaptive attack optimized against the median defense it faces",
        ),
        _spec(
            "ramanujan-fang-trimmed-mean",
            _RAMANUJAN,
            {"kind": "byzshield", "aggregator": "trimmed_mean",
             "aggregator_params": {"trim": 3}},
            attack={"name": "fang", "params": {"defense": "trimmed_mean", "trim": 3},
                    "selection": "omniscient",
                    "schedule": {"kind": "static", "q": 5}},
            description="Aggregator-aware Fang payload vs the K=25 trimmed-mean stage",
        ),
        _spec(
            "vanilla-fang-krum",
            _BASELINE,
            {"kind": "vanilla", "aggregator": "krum",
             "aggregator_params": {"num_byzantine": 2}},
            attack={"name": "fang", "params": {"defense": "krum"},
                    "selection": "omniscient",
                    "schedule": {"kind": "static", "q": 2}},
            description="Fang Krum attack: largest lambda whose payload Krum still selects",
        ),
        _spec(
            "mols-minmax-unit",
            _MOLS,
            _BYZSHIELD_MEDIAN,
            attack={"name": "min_max", "params": {"direction": "unit"},
                    "selection": "omniscient",
                    "schedule": {"kind": "static", "q": 3}},
            description="AGR-agnostic min-max: furthest payload within the honest spread",
        ),
        _spec(
            "ramanujan-minsum-std",
            _RAMANUJAN,
            _BYZSHIELD_MEDIAN,
            attack={"name": "min_sum", "params": {"direction": "std"},
                    "selection": "omniscient",
                    "schedule": {"kind": "ramping", "q": 1, "q_end": 5, "period": 1}},
            description="Min-sum deviation along the honest std axis, q ramping 1 -> 5",
        ),
        # -- Non-IID partitions (label / quantity skew) ---------------------
        _spec(
            "mols-alie-dirichlet03",
            _MOLS,
            _BYZSHIELD_MEDIAN,
            attack={"name": "alie", "selection": "omniscient",
                    "schedule": {"kind": "static", "q": 2}},
            data={"kind": "gaussian", "num_train": 300, "num_test": 100,
                  "num_classes": 4, "dim": 12, "separation": 3.0,
                  "partition": {"kind": "dirichlet", "alpha": 0.3}},
            description="Omniscient ALIE over strongly label-skewed (alpha=0.3) file shards",
        ),
        _spec(
            "ramanujan-signflip-quantity-skew",
            _RAMANUJAN,
            _BYZSHIELD_MEDIAN,
            attack={"name": "sign_flip", "params": {"magnitude": 2.0},
                    "selection": "omniscient",
                    "schedule": {"kind": "static", "q": 3}},
            data={"kind": "gaussian", "num_train": 300, "num_test": 100,
                  "num_classes": 4, "dim": 12, "separation": 3.0,
                  "partition": {"kind": "quantity_skew", "alpha": 0.5}},
            description="Sign-flip collusion while file shard sizes follow a Dirichlet draw",
        ),
        _spec(
            "mols-fang-dirichlet-faults",
            _MOLS,
            _BYZSHIELD_MEDIAN,
            attack={"name": "fang", "params": {"defense": "median"},
                    "selection": "omniscient",
                    "schedule": {"kind": "static", "q": 3}},
            faults=[{"kind": "stragglers",
                     "params": {"count": 2, "delay_model": "fixed", "delay": 0.3}},
                    {"kind": "dropout", "params": {"probability": 0.1}}],
            data={"kind": "gaussian", "num_train": 300, "num_test": 100,
                  "num_classes": 4, "dim": 12, "separation": 3.0,
                  "partition": {"kind": "dirichlet", "alpha": 0.5}},
            description="Adaptive Fang attack on label-skewed shards under stragglers and churn",
        ),
        # -- Bulyan second stage --------------------------------------------
        _spec(
            "ramanujan-bulyan-minmax-rotating",
            _RAMANUJAN,
            {"kind": "byzshield", "aggregator": "bulyan",
             "aggregator_params": {"num_byzantine": 3}},
            attack={"name": "min_max", "params": {"direction": "std"},
                    "selection": "rotating",
                    "schedule": {"kind": "rotating", "q": 5, "period": 1, "stride": 2}},
            data={"kind": "gaussian", "num_train": 300, "num_test": 100,
                  "num_classes": 4, "dim": 12, "separation": 3.0,
                  "partition": {"kind": "dirichlet", "alpha": 1.0}},
            description="ByzShield + Bulyan(q=3) over 25 file votes, rotating min-max, Dirichlet shards",
        ),
        _spec(
            "vanilla-bulyan-alie",
            _BASELINE,
            {"kind": "vanilla", "aggregator": "bulyan",
             "aggregator_params": {"num_byzantine": 2}},
            attack={"name": "alie", "selection": "random",
                    "schedule": {"kind": "static", "q": 2}},
            description="Figure 3's baseline: no-redundancy Bulyan under ALIE",
        ),
    ]
    catalog: dict[str, dict[str, Any]] = {}
    for entry in entries:
        if entry["name"] in catalog:  # pragma: no cover - authoring guard
            raise ConfigurationError(f"duplicate scenario name {entry['name']!r}")
        catalog[entry["name"]] = entry
    return catalog


_CATALOG = _catalog()


def scenario_names() -> list[str]:
    """Sorted names of the golden scenario matrix."""
    return sorted(_CATALOG)


def get_scenario(name: str) -> ScenarioSpec:
    """Build the named scenario's spec (a fresh instance each call)."""
    if not isinstance(name, str) or name not in _CATALOG:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {scenario_names()}"
        )
    return ScenarioSpec.from_dict(_CATALOG[name])


def all_scenarios() -> list[ScenarioSpec]:
    """Every catalog scenario, in name order."""
    return [get_scenario(name) for name in scenario_names()]
