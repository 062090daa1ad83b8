"""Declarative campaign specification and grid expansion.

A :class:`CampaignSpec` describes a *sweep*: one base scenario (inline dict
or catalog name) plus a parameter grid of dotted override paths, e.g.
``{"attack.schedule.q": [0, 2, 4], "pipeline.aggregator": ["median",
"signsgd"]}``.  Expansion takes the cartesian product of the grid axes and
materializes one concrete :class:`~repro.scenarios.spec.ScenarioSpec` per
cell, with a scenario name derived from the axis labels and a seed derived
deterministically from the campaign seed and that name — so the expansion is
a pure function of the campaign spec, independent of execution order or
process placement.

Like :class:`~repro.scenarios.spec.ScenarioSpec`, a campaign is a
:class:`~repro.scenarios.schema.Schema`: the same strict loader, the same
canonical form (``grid`` is pinned — an empty grid serializes as ``{}``) and
the same sha256 digest.  The digest names the campaign's result directory
(``campaign_out/<digest>/``), which is what makes re-runs resumable — and
any edit to the campaign definition lands results in a fresh directory
instead of mixing with stale records.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import pathlib
from dataclasses import dataclass
from typing import Any, Mapping

from repro.exceptions import ConfigurationError
from repro.scenarios.catalog import get_scenario
from repro.scenarios.schema import Schema, spec_field
from repro.scenarios.spec import ScenarioSpec
from repro.utils.rng import derive_seed

__all__ = ["GridAxis", "CampaignScenario", "CampaignSpec"]

_SEED_POLICIES = ("derived", "fixed")


def _is_labeled_value(value: Any) -> bool:
    return isinstance(value, Mapping) and set(value) == {"label", "value"}


def _default_label(value: Any) -> str:
    """Compact display label for an unlabeled grid value."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (int, str)):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    # Dicts/lists get a short content hash; give them an explicit
    # {"label": ..., "value": ...} wrapper for readable scenario names.
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:8]


@dataclass(frozen=True)
class GridAxis:
    """One swept parameter: a dotted path into the scenario dict + values.

    ``labels`` name the values inside expanded scenario names; they default
    to a compact rendering of the value and can be given explicitly by
    writing a grid value as ``{"label": "...", "value": ...}``.
    """

    path: str
    values: tuple[Any, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.path or any(not part for part in self.path.split(".")):
            raise ConfigurationError(f"bad grid path {self.path!r}")
        if self.path == "name":
            raise ConfigurationError(
                "grid cannot sweep 'name': expanded scenario names are derived"
            )
        if not self.values:
            raise ConfigurationError(f"grid axis {self.path!r} has no values")
        if len(self.values) != len(self.labels):
            raise ConfigurationError(
                f"grid axis {self.path!r}: {len(self.values)} values but "
                f"{len(self.labels)} labels"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ConfigurationError(
                f"grid axis {self.path!r} has duplicate value labels: "
                f"{sorted(self.labels)}"
            )

    @classmethod
    def from_values(cls, path: str, raw_values: Any) -> "GridAxis":
        if not isinstance(raw_values, (list, tuple)):
            raise ConfigurationError(
                f"grid axis {path!r} must map to a list of values, "
                f"got {type(raw_values).__name__}"
            )
        values: list[Any] = []
        labels: list[str] = []
        for raw in raw_values:
            if _is_labeled_value(raw):
                values.append(copy.deepcopy(raw["value"]))
                labels.append(str(raw["label"]))
            else:
                values.append(copy.deepcopy(raw))
                labels.append(_default_label(raw))
        return cls(path=path, values=tuple(values), labels=tuple(labels))

    def to_dict_values(self) -> list[Any]:
        """Canonical dict form of the values (labeled form preserved)."""
        out: list[Any] = []
        for value, label in zip(self.values, self.labels):
            if label == _default_label(value):
                out.append(copy.deepcopy(value))
            else:
                out.append({"label": label, "value": copy.deepcopy(value)})
        return out


class _Grid:
    """:mod:`~repro.scenarios.schema` codec of ``CampaignSpec.grid``: a
    ``{path: values}`` mapping in JSON, a tuple of axes sorted by path here."""

    json = dict

    @staticmethod
    def load(raw: dict[str, Any], where: str) -> tuple[GridAxis, ...]:
        return tuple(GridAxis.from_values(path, raw[path]) for path in sorted(raw))

    @staticmethod
    def emit(grid: tuple[GridAxis, ...]) -> dict[str, list[Any]]:
        return {axis.path: axis.to_dict_values() for axis in grid}


@dataclass(frozen=True)
class CampaignScenario:
    """One expanded grid cell: the concrete spec plus its provenance."""

    index: int
    spec: ScenarioSpec
    overrides: Mapping[str, Any]
    labels: Mapping[str, str]


def _apply_override(data: dict[str, Any], path: str, value: Any) -> None:
    """Set ``value`` at the dotted ``path``, creating intermediate dicts."""
    parts = path.split(".")
    node = data
    for part in parts[:-1]:
        child = node.setdefault(part, {})
        if not isinstance(child, dict):
            raise ConfigurationError(
                f"grid path {path!r} descends into non-dict value at {part!r}"
            )
        node = child
    node[parts[-1]] = copy.deepcopy(value)


@dataclass(frozen=True)
class CampaignSpec(Schema, where="campaign"):
    """A parameter sweep over one base scenario.

    Attributes
    ----------
    name:
        Campaign identifier; prefixes every expanded scenario name.
    base:
        The base scenario as a plain dict (the template every grid cell
        starts from).  Loaded from either an inline ``"base"`` dict or a
        ``"base_scenario"`` catalog name.
    grid:
        The swept axes, ordered by path (sorted) so expansion order is a
        pure function of the content, not of dict insertion order.
    seed:
        Campaign-level base seed for per-scenario seed derivation.
    seed_policy:
        ``"derived"`` (default) gives every expanded scenario
        ``derive_seed(seed, "campaign", name, scenario_name)``; ``"fixed"``
        keeps the base scenario's seed.  An explicit ``"seed"`` grid axis
        always wins over either policy.
    """

    name: str = spec_field(str, pinned=True)
    base: dict[str, Any] = spec_field(dict, pinned=True)
    grid: tuple[GridAxis, ...] = spec_field(_Grid, pinned=True, default=())
    seed: int = spec_field(int, pinned=True, default=0)
    seed_policy: str = spec_field(str, default="derived")
    description: str = spec_field(str, default="")

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("campaign requires a non-empty name")
        if self.seed_policy not in _SEED_POLICIES:
            raise ConfigurationError(
                f"unknown seed_policy {self.seed_policy!r}; "
                f"expected one of {list(_SEED_POLICIES)}"
            )
        paths = [axis.path for axis in self.grid]
        if len(set(paths)) != len(paths):
            raise ConfigurationError(f"duplicate grid axis paths: {sorted(paths)}")
        if list(paths) != sorted(paths):
            raise ConfigurationError("grid axes must be sorted by path")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """The field table, once ``base`` or ``base_scenario`` is resolved.

        ``base_scenario`` names a catalog scenario; an inline ``base`` takes
        the campaign's name unless it has its own and is validated eagerly.
        """
        if isinstance(data, Mapping):
            if ("base" in data) == ("base_scenario" in data):
                raise ConfigurationError(
                    "campaign requires exactly one of 'base' (inline scenario dict) "
                    "or 'base_scenario' (catalog name)"
                )
            data = dict(data)
            if "base_scenario" in data:
                data["base"] = get_scenario(data.pop("base_scenario")).to_dict()
            elif isinstance(data["base"], Mapping):
                data["base"] = {"name": data.get("name"), **data["base"]}
        campaign = super().from_dict(data)
        try:
            ScenarioSpec.from_dict(campaign.base)
        except ConfigurationError as exc:
            raise ConfigurationError(f"campaign.base is not a valid scenario: {exc}") from exc
        return campaign

    @classmethod
    def from_json_file(cls, path: "str | pathlib.Path") -> "CampaignSpec":
        path = pathlib.Path(path)
        try:
            data = json.loads(path.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot load campaign spec {path}: {exc}") from exc
        return cls.from_dict(data)

    # -- expansion -----------------------------------------------------------
    def axis_keys(self) -> dict[str, str]:
        """Short display key per axis: the last path segment, falling back to
        the full path when two axes would collide on it."""
        last = {}
        for axis in self.grid:
            last.setdefault(axis.path.rsplit(".", 1)[-1], []).append(axis.path)
        return {
            path: (short if len(paths) == 1 else path)
            for short, paths in last.items()
            for path in paths
        }

    def scenario_name(self, labels: Mapping[str, str]) -> str:
        """Deterministic name of the grid cell with the given axis labels."""
        if not self.grid:
            return self.name
        keys = self.axis_keys()
        cell = ",".join(f"{keys[axis.path]}={labels[axis.path]}" for axis in self.grid)
        return f"{self.name}/{cell}"

    def expand(self) -> list[CampaignScenario]:
        """Materialize every grid cell as a concrete :class:`ScenarioSpec`.

        Expansion order is the cartesian product over axes sorted by path,
        each axis's values in declared order — identical on every call and
        every machine.
        """
        scenarios: list[CampaignScenario] = []
        names: set[str] = set()
        choices = [range(len(axis.values)) for axis in self.grid]
        for index, combo in enumerate(itertools.product(*choices)):
            overrides = {
                axis.path: axis.values[i] for axis, i in zip(self.grid, combo)
            }
            labels = {axis.path: axis.labels[i] for axis, i in zip(self.grid, combo)}
            data = copy.deepcopy(self.base)
            name = self.scenario_name(labels)
            if name in names:  # pragma: no cover - per-axis labels are unique
                raise ConfigurationError(f"duplicate expanded scenario name {name!r}")
            names.add(name)
            data["name"] = name
            if self.seed_policy == "derived":
                data["seed"] = derive_seed(self.seed, "campaign", self.name, name)
            for path, value in overrides.items():
                _apply_override(data, path, value)
            try:
                spec = ScenarioSpec.from_dict(data)
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"campaign {self.name!r}: grid cell {name!r} does not form "
                    f"a valid scenario: {exc}"
                ) from exc
            scenarios.append(
                CampaignScenario(
                    index=index, spec=spec, overrides=overrides, labels=labels
                )
            )
        return scenarios
