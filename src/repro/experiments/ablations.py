"""Ablations motivated by the paper's design discussion.

Two questions the paper raises but does not isolate experimentally:

* **Does the structured expander placement matter, or is any redundancy
  enough?**  :func:`assignment_structure_ablation` compares the worst-case
  distortion fraction of the MOLS / Ramanujan placements against a *random*
  biregular placement with the same ``(K, f, l, r)`` and against FRC grouping,
  under the same omniscient adversary.
* **How much does the post-vote aggregator matter?**
  :func:`aggregator_ablation` trains ByzShield with different second-stage
  rules (median, trimmed mean, Multi-Krum, Bulyan, geometric median) under a
  fixed attack and reports the final accuracies — the "ByzShield can also be
  used with non-trivial aggregation schemes" remark of the conclusion.
"""

from __future__ import annotations

import numpy as np

from repro.assignment.frc import FRCAssignment
from repro.assignment.mols import MOLSAssignment
from repro.assignment.ramanujan import RamanujanAssignment
from repro.assignment.random_scheme import RandomAssignment
from repro.core.distortion import max_distortion
from repro.exceptions import ConfigurationError
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ScenarioSpec

__all__ = ["assignment_structure_ablation", "aggregator_ablation"]


def assignment_structure_ablation(
    load: int = 5,
    replication: int = 3,
    q_values: "list[int] | range" = range(2, 8),
    num_random_draws: int = 5,
    seed: int = 0,
    method: str = "auto",
) -> list[dict[str, float]]:
    """Worst-case ``ε̂`` of MOLS vs Ramanujan vs random vs FRC placements.

    All schemes use the same number of workers ``K = r*l`` and (except FRC,
    whose geometry forces ``f = K/r``) the same number of files ``f = l²``.
    The random placement is averaged over ``num_random_draws`` draws.
    """
    if num_random_draws < 1:
        raise ConfigurationError("num_random_draws must be >= 1")
    mols = MOLSAssignment(load=load, replication=replication).assignment
    ramanujan = RamanujanAssignment(m=replication, s=load).assignment
    rows: list[dict[str, float]] = []
    for q in q_values:
        random_eps = []
        for draw in range(num_random_draws):
            random_assignment = RandomAssignment(
                num_workers=mols.num_workers,
                num_files=mols.num_files,
                replication=replication,
                seed=seed + draw,
            ).assignment
            random_eps.append(
                max_distortion(random_assignment, q, method=method, seed=seed).epsilon
            )
        rows.append(
            {
                "q": int(q),
                "epsilon_mols": max_distortion(mols, q, method=method, seed=seed).epsilon,
                "epsilon_ramanujan": max_distortion(
                    ramanujan, q, method=method, seed=seed
                ).epsilon,
                "epsilon_random_mean": float(np.mean(random_eps)),
                "epsilon_random_worst": float(np.max(random_eps)),
                "epsilon_frc": FRCAssignment.worst_case_epsilon(
                    q, mols.num_workers, replication
                ),
            }
        )
    return rows


def aggregator_ablation(
    num_byzantine: int = 5,
    scale_iterations: int = 40,
    seed: int = 0,
) -> list[dict[str, float]]:
    """Final accuracy of ByzShield (K=25 Ramanujan) with different post-vote rules.

    The attack is ALIE with the omniscient worst-case Byzantine set, matching
    the paper's headline setting; all runs share the dataset, the model
    initialization and the batch sequence.
    """
    f = 25  # files of the Ramanujan (m=5, s=5) placement
    aggregators: dict[str, dict[str, int]] = {
        "median": {},
        "trimmed_mean": {"trim": max(1, num_byzantine // 2)},
        "multi_krum": {"num_byzantine": max(1, (f - 3) // 2 // 2)},
        "bulyan": {"num_byzantine": max(1, (f - 3) // 4)},
        "geometric_median": {},
    }
    rows: list[dict[str, float]] = []
    for name, params in aggregators.items():
        spec = ScenarioSpec.from_dict(
            {
                "name": f"byzshield+{name}",
                "seed": seed,
                "cluster": {"scheme": "ramanujan", "params": {"m": 5, "s": 5}},
                "pipeline": {
                    "kind": "byzshield",
                    "aggregator": name,
                    "aggregator_params": params,
                },
                "data": {"kind": "gaussian", "num_train": 1125, "num_test": 375,
                         "num_classes": 10, "dim": 32, "separation": 1.5},
                "model": {"hidden": [32]},
                "training": {
                    "batch_size": 100,
                    "num_iterations": scale_iterations,
                    "learning_rate": 0.05,
                    "momentum": 0.9,
                    "eval_every": max(scale_iterations // 4, 1),
                },
                "attack": {"name": "alie", "selection": "omniscient",
                           "schedule": {"kind": "static", "q": num_byzantine}},
            }
        )
        history = ScenarioRunner(spec).build_trainer().train()
        rows.append(
            {
                "aggregator": name,
                "final_accuracy": history.final_accuracy,
                "best_accuracy": history.best_accuracy,
                "final_train_loss": float(history.train_losses[-1]),
                "mean_distortion": float(history.distortion_fractions.mean()),
            }
        )
    return rows
