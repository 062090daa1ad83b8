"""The benchmark's workloads: committed spec templates turned into live ops.

Each template under ``workloads/`` is a plain ``ScenarioSpec`` dict.  A
:class:`Workload` derives the run's spec dicts from ``--seed`` and opens
*sessions*; a session executes **ops** one after the other (closed loop, one
client).  For the three trainer workloads an op is one
``DistributedTrainer.run_iteration`` on a trainer built by
``ScenarioRunner.build_trainer()``; for ``async-hier-cells-traced`` an op is
one whole campaign cell through ``campaigns.executor.execute_spec``.  The
program under test only ever sees the generated spec dicts.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import pathlib
from typing import Any

import numpy as np
from layers import instrument_trainer
from spans import Tracer

from repro.assignment.registry import create_scheme
from repro.campaigns.executor import execute_spec
from repro.core.distortion import max_distortion
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ScenarioSpec
from repro.utils.digest import array_digest
from repro.utils.rng import as_generator, derive_seed

__all__ = ["WORKLOAD_NAMES", "Workload", "TrainerSession", "CellSession"]

TEMPLATE_DIR = pathlib.Path(__file__).resolve().parent / "workloads"

#: ops a session runs before its digest/accuracy snapshot is taken; also the
#: length of the untraced reference pass.  Sized at roughly a third of what a
#: 10 s run completes on the reference sandbox, so the snapshot is always
#: reached and ``final_accuracy`` depends on the seed alone.
CHECK_OPS = {
    "sync-alie-wide": 30,
    "clean-compute-bound": 100,
    "adaptive-bulyan-noniid": 100,
    "async-hier-cells-traced": 12,
}
WORKLOAD_NAMES = tuple(CHECK_OPS)

#: the cell grid of ``async-hier-cells-traced``: every block of 12 cells holds
#: each (attack, q) pair once, in an order drawn from the seed
CELL_ATTACKS = ("alie", "constant", "sign_flip", "inner_product")
CELL_QS = (2, 3, 4)


class Workload:
    """One named workload at one seed."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = int(seed)
        self.check_ops = CHECK_OPS[name]
        self.template = json.loads((TEMPLATE_DIR / f"{name}.json").read_text())
        self.is_cells = name == "async-hier-cells-traced"
        self.rounds_per_op = (
            int(self.template["training"]["num_iterations"]) if self.is_cells else 1
        )
        cluster = self.template["cluster"]
        self.assignment = create_scheme(cluster["scheme"], **cluster["params"]).assignment
        self._epsilon: dict[int, float] = {}
        # Validate through the real loader before anything is timed.
        self.spec_digest = ScenarioSpec.from_dict(self.base_spec()).digest()

    def base_spec(self) -> dict[str, Any]:
        """The template at this run's seed: the spec of the trainer workloads,
        and the spec every set-up is timed on.  (Set-up on the cells workload
        uses this one too, not cell 0: cell 0's ``q`` follows the seed, and
        the omniscient search costs ``C(25, q)``.)"""
        spec = copy.deepcopy(self.template)
        spec["seed"] = derive_seed(self.seed, self.name)
        return spec

    def cell_spec(self, cell: int) -> dict[str, Any]:
        """The spec of campaign cell ``cell`` (``async-hier-cells-traced``)."""
        grid = [(a, q) for a in CELL_ATTACKS for q in CELL_QS]
        block, position = divmod(cell, len(grid))
        order = as_generator(derive_seed(self.seed, self.name, "block", block))
        attack, q = grid[int(order.permutation(len(grid))[position])]
        spec = self.base_spec()
        spec["name"] = f"{self.name}-{cell:04d}-{attack}-q{q}"
        spec["seed"] = derive_seed(self.seed, self.name, "cell", cell)
        spec["attack"]["name"] = attack
        spec["attack"]["schedule"]["q"] = q
        return spec

    def session(self, tracer: "Tracer | None" = None) -> "TrainerSession | CellSession":
        """Open a fresh session (builds whatever the first op needs)."""
        if self.is_cells:
            return CellSession(self, tracer)
        return TrainerSession(self, tracer)

    def epsilon_bound(self, q: int) -> float:
        """The paper's guarantee: worst-case distorted-file fraction for ``q``."""
        if q not in self._epsilon:
            self._epsilon[q] = max_distortion(self.assignment, q).epsilon if q else 0.0
        return self._epsilon[q]


class TrainerSession:
    """A live trainer; every op is one ``run_iteration``."""

    def __init__(self, workload: Workload, tracer: "Tracer | None" = None) -> None:
        self.workload = workload
        spec = ScenarioSpec.from_dict(workload.base_spec())
        self.trainer = ScenarioRunner(spec).build_trainer()
        if tracer is not None:
            instrument_trainer(tracer, self.trainer)
        attack = workload.template.get("attack")
        self.q = int(attack["schedule"]["q"]) if attack else 0
        self.iteration = 0
        self.last: Any = None

    def op(self) -> None:
        self.last = self.trainer.run_iteration(self.iteration)
        self.iteration += 1

    def failure(self) -> "str | None":
        """Why the last op counts as failed, or ``None``."""
        record = self.last
        if not math.isfinite(record.train_loss):
            return f"round {record.iteration}: non-finite loss"
        # A non-finite aggregate makes the SGD step non-finite, so finite
        # parameters after the step cover the aggregate too.
        if not np.isfinite(self.trainer.server.params).all():
            return f"round {record.iteration}: non-finite parameters"
        bound = self.workload.epsilon_bound(self.q)
        if record.distortion_fraction > bound:
            return (
                f"round {record.iteration}: distortion "
                f"{record.distortion_fraction} above the bound {bound}"
            )
        return None

    def snapshot(self) -> tuple[str, float]:
        """``(params digest, test accuracy)`` of the current global model."""
        digest = array_digest(self.trainer.server.params)
        return digest, float(self.trainer.evaluate()["accuracy"])


class CellSession:
    """A stream of campaign cells; every op is one ``execute_spec``."""

    def __init__(self, workload: Workload, tracer: "Tracer | None" = None) -> None:
        self.workload = workload
        self.execute = (
            execute_spec
            if tracer is None
            else tracer.shim(execute_spec, "campaigns.executor")
        )
        self.cell = 0
        self.last: Any = None
        self.records: list[Any] = []

    def op(self) -> None:
        spec = ScenarioSpec.from_dict(self.workload.cell_spec(self.cell))
        self.last = self.execute(spec)
        self.records.append(self.last)
        self.cell += 1

    def failure(self) -> "str | None":
        record = self.last
        name = record.scenario
        if not math.isfinite(record.summary["final_accuracy"]):
            return f"{name}: non-finite final accuracy"
        num_files = self.workload.assignment.num_files
        for row in record.trace["rounds"]:
            if not math.isfinite(float.fromhex(row["mean_loss_hex"])):
                return f"{name} round {row['iteration']}: non-finite loss"
            bound = self.workload.epsilon_bound(row["q"])
            if row["num_distorted"] / num_files > bound:
                return (
                    f"{name} round {row['iteration']}: {row['num_distorted']} "
                    f"distorted files above the bound {bound}"
                )
        return None

    def snapshot(self) -> tuple[str, float]:
        """Digest over every cell's final parameters, and the mean accuracy."""
        digests = "".join(r.summary["final_params_digest"] for r in self.records)
        accuracy = sum(r.summary["final_accuracy"] for r in self.records)
        return (
            hashlib.sha256(digests.encode()).hexdigest()[:16],
            accuracy / len(self.records),
        )
