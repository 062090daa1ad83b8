#!/usr/bin/env python
"""Which value each spec knob takes across every spec the repo ships.

    PYTHONPATH=src python tools/spec_surface.py

Loads the catalog scenarios, every figure curve at every scale, the example
scenarios, the cells of the example campaigns, the e2e workload templates
and the first 12 cells of ``async-hier-cells-traced`` (seed 3), then prints
two Markdown tables: the values each ``ScenarioSpec`` field takes (with how
many specs take each), and for each component a spec builds, the
constructor parameters no spec sets, with their defaults.  A field with one
value, or a parameter in the second table, is a knob nobody turns
(EXPERIMENTS.md, "The spec's knobs that no spec turns").
"""

from __future__ import annotations

import collections
import dataclasses
import inspect
import json
import pathlib
import sys

from repro.aggregation.registry import get_aggregator
from repro.assignment.registry import get_scheme
from repro.attacks.registry import get_attack
from repro.campaigns.spec import CampaignSpec
from repro.compression.compressors import create_compressor
from repro.experiments.accuracy import SCALE_PRESETS, available_figures, figure_scenarios
from repro.scenarios import get_scenario, scenario_names
from repro.scenarios.runner import _FAULT_INJECTORS
from repro.scenarios.spec import ScenarioSpec

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
from workloads import Workload  # noqa: E402

#: free-form sections: their keys are the components' parameters
_PARAMS = ("params", "aggregator_params", "faults")


def shipped_specs() -> dict[str, list[ScenarioSpec]]:
    """Every spec the repo ships, by where it comes from."""
    examples = ROOT / "examples"
    cells = Workload("async-hier-cells-traced", 3)
    templates = sorted(p.stem for p in (ROOT / "benchmarks/e2e/workloads").glob("*.json"))
    return {
        "catalog": [get_scenario(name) for name in scenario_names()],
        "figures": [spec for figure in available_figures() for scale in sorted(SCALE_PRESETS)
                    for spec in figure_scenarios(figure, scale=scale)],
        "example scenarios": [ScenarioSpec.from_json_file(p)
                              for p in sorted(examples.glob("scenario_*.json"))],
        "example campaigns": [cell.spec for p in sorted(examples.glob("campaign_*.json"))
                              for cell in CampaignSpec.from_json_file(p).expand()],
        "e2e templates": [ScenarioSpec.from_dict(Workload(name, 3).base_spec())
                          for name in templates],
        "e2e cells (seed 3)": [ScenarioSpec.from_dict(cells.cell_spec(i)) for i in range(12)],
    }


def components(spec: ScenarioSpec):
    """``(kind, class, params)`` of each component ``spec`` builds."""
    yield "scheme", get_scheme(spec.cluster.scheme), spec.cluster.params
    if spec.pipeline.kind != "draco":  # DRACO averages, whatever it names
        yield "aggregator", get_aggregator(spec.pipeline.aggregator), spec.pipeline.aggregator_params
    if spec.attack is not None:
        yield "attack", get_attack(spec.attack.name), spec.attack.params
    for fault in spec.faults:
        yield "fault", _FAULT_INJECTORS[fault.kind], fault.params
    if spec.compression is not None:
        compressor = create_compressor(spec.compression.name, **spec.compression.params)
        yield "compressor", type(compressor), spec.compression.params


def main() -> int:
    groups = shipped_specs()
    specs = [spec for group in groups.values() for spec in group]
    print(", ".join(f"{len(group)} {name}" for name, group in groups.items()),
          f"= {len(specs)} specs")
    values: dict[str, collections.Counter] = collections.defaultdict(collections.Counter)

    def walk(section, path: str) -> None:
        for field in dataclasses.fields(section):
            value, where = getattr(section, field.name), f"{path}.{field.name}"
            if dataclasses.is_dataclass(value):
                walk(value, where)
            elif field.name not in _PARAMS:
                values[where][json.dumps(value)] += 1

    uses: collections.Counter = collections.Counter()
    set_keys: dict[tuple[str, type], set[str]] = collections.defaultdict(set)
    for spec in specs:
        walk(spec, "scenario")
        for kind, cls, params in components(spec):
            uses[kind, cls] += 1
            set_keys[kind, cls].update(params)

    print("\n| spec field | values (specs) |\n| --- | --- |")
    for path, counter in sorted(values.items()):
        shown = (", ".join(f"{value} ({n})" for value, n in counter.most_common())
                 if len(counter) <= 8 else f"{len(counter)} distinct")
        print(f"| `{path}` | {shown} |")
    print("\n| component | specs | parameters no spec sets (default) |\n| --- | --- | --- |")
    for (kind, cls), n in sorted(uses.items(), key=lambda item: (item[0][0], item[0][1].__name__)):
        unset = [f"`{p.name}` ({p.default!r})"
                 for p in inspect.signature(cls).parameters.values()
                 if p.default is not inspect.Parameter.empty and p.name not in set_keys[kind, cls]]
        print(f"| {kind} `{cls.__name__}` | {n} | {', '.join(unset) or '—'} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
