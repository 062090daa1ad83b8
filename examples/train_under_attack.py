#!/usr/bin/env python
"""Distributed training under an omniscient ALIE attack (paper Figure 2 setup).

Trains the same classifier three ways on the synthetic image-classification
substrate, all under the ALIE attack with the omniscient worst-case choice of
q = 5 Byzantine workers out of K = 25:

* **ByzShield** — Ramanujan Case 2 assignment (r = l = 5), per-file majority
  vote, coordinate-wise median over the 25 voted gradients;
* **baseline median** — no redundancy, coordinate-wise median over the 25
  worker gradients;
* **DETOX (median-of-means)** — FRC grouping into 5 groups of 5 workers,
  per-group vote, median-of-means over the group winners.

All three runs share the dataset, the initial model and the batch sequence, so
the only difference is the defense.  Expect ByzShield's realized distortion
fraction (0.08) to be far below DETOX's (0.2) under this adversary.

Run with::

    python examples/train_under_attack.py [--iterations 150] [--q 5]
"""

from __future__ import annotations

import argparse

from repro.scenarios import ScenarioRunner, ScenarioSpec
from repro.experiments.report import format_rows, format_series


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=150, help="training iterations")
    parser.add_argument("--q", type=int, default=5, help="number of Byzantine workers")
    parser.add_argument("--seed", type=int, default=0, help="global seed")
    return parser.parse_args()


def main() -> None:
    args = parse_args()

    # What the three runs share: the synthetic stand-in for CIFAR-10 (see
    # DESIGN.md substitutions), the model (hence w0), the schedule, the
    # adversary and the seed.
    shared = {
        "seed": args.seed,
        "data": {"kind": "images", "num_train": 2400, "num_test": 600,
                 "num_classes": 10, "image_size": 8, "channels": 3},
        "model": {"hidden": [64]},
        "training": {
            "batch_size": 150,
            "num_iterations": args.iterations,
            "learning_rate": 0.05,
            "lr_decay": 0.96,
            "lr_period": 15,
            "momentum": 0.9,
            "eval_every": max(args.iterations // 10, 1),
        },
        "attack": {"name": "alie", "selection": "omniscient",
                   "schedule": {"kind": "static", "q": args.q}},
    }
    defenses = {
        "ByzShield (median)": {
            "cluster": {"scheme": "ramanujan", "params": {"m": 5, "s": 5}},
            "pipeline": {"kind": "byzshield", "aggregator": "median"},
        },
        "Baseline median": {
            "cluster": {"scheme": "baseline", "params": {"num_workers": 25}},
            "pipeline": {"kind": "vanilla", "aggregator": "median"},
        },
        "DETOX (median-of-means)": {
            "cluster": {"scheme": "frc", "params": {"num_workers": 25, "replication": 5}},
            "pipeline": {"kind": "detox", "aggregator": "median_of_means",
                         "aggregator_params": {"num_groups": 2}},
        },
    }
    runs = {
        label: ScenarioRunner(
            ScenarioSpec.from_dict({"name": label, **defense, **shared})
        ).build_trainer()
        for label, defense in defenses.items()
    }

    histories = {}
    for label, trainer in runs.items():
        print(f"training: {label} (q={args.q}, omniscient Byzantine selection)")
        histories[label] = trainer.train(verbose=True)
        print()

    print(format_series(
        {label: history.accuracy_series() for label, history in histories.items()},
        title="Top-1 test accuracy vs iteration",
    ))
    print()
    summary = [
        {
            "defense": label,
            "final_accuracy": history.final_accuracy,
            "best_accuracy": history.best_accuracy,
            "mean_distortion": float(history.distortion_fractions.mean()),
        }
        for label, history in histories.items()
    ]
    print(format_rows(summary, title="Summary"))


if __name__ == "__main__":
    main()
