"""The field table (``repro.scenarios.schema``): the frozen pinned set, a
hypothesis strategy built from the table itself, and the mutation fuzz of the
one strict loader over every JSON-facing family."""

from __future__ import annotations

import collections
import dataclasses
import json
import math
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaigns import CampaignSpec, ScenarioRecord, execute_spec
from repro.exceptions import ConfigurationError
from repro.scenarios import RoundTrace, RunTrace, ScenarioSpec, all_scenarios, get_scenario
from repro.scenarios.golden import golden_path
from repro.scenarios.schema import Schema, spec_field
from repro.scenarios.trace import EvaluationTrace

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SETTINGS = dict(deadline=None, derandomize=True, suppress_health_check=list(HealthCheck))


def schema_classes(root=Schema):
    """Every JSON-facing class of the library (test-local subclasses excluded)."""
    for cls in root.__subclasses__():
        if cls.__module__.startswith("repro."):
            yield cls
            yield from schema_classes(cls)


def default_of(field):
    if field.default_factory is not dataclasses.MISSING:
        return field.default_factory()
    return field.default


def is_required(field):
    return field.default is field.default_factory is dataclasses.MISSING


def _json_files(*patterns):
    return [
        json.loads(path.read_text())
        for pattern in patterns
        for path in sorted(REPO_ROOT.glob(pattern))
    ]


#: every valid scenario document the repo ships: the catalog, the examples and
#: the e2e workload templates
SCENARIO_DOCUMENTS = [spec.to_dict() for spec in all_scenarios()] + _json_files(
    "examples/scenario_*.json", "benchmarks/e2e/workloads/*.json"
)


# ---------------------------------------------------------------------------
# (c) The pinned set is frozen.  A pinned field is part of every digest: adding
# or flipping a ``pinned=True`` moves goldens, so it must show up here as a
# one-line diff.  Everything NOT listed is omit-when-default by construction.
# ---------------------------------------------------------------------------

PINNED = {
    "ClusterSpec": {"scheme"},
    "PipelineSpec": {"kind", "aggregator"},
    "PartitionSpec": {"kind", "alpha"},
    "DataSpec": {
        "kind", "num_train", "num_test", "num_classes", "dim", "separation",
        "image_size", "channels",
    },
    "ModelSpec": {"hidden"},
    "TrainingSpec": {
        "batch_size", "num_iterations", "learning_rate", "lr_decay", "lr_period",
        "momentum", "eval_every",
    },
    "ScheduleSpec": {"kind", "q"},
    "AttackSpec": {"name", "selection", "schedule"},
    "FaultSpec": {"kind"},
    "CompressionSpec": {"name"},
    "RuntimeSpec": set(),
    "TopologySpec": {"groups"},
    "ScenarioSpec": {"name", "seed", "cluster", "pipeline", "data", "model", "training"},
    "CampaignSpec": {"name", "base", "grid", "seed"},
    "RoundTrace": {
        "iteration", "q", "byzantine", "num_distorted", "votes_digest", "winners_digest",
        "aggregate_digest", "params_digest", "mean_loss_hex", "round_time_hex", "faults",
        "realised_distorted",
    },
    "EvaluationTrace": {"iteration", "test_loss_hex", "test_accuracy_hex"},
    "RunTrace": {
        "scenario", "spec_digest", "format_version", "rounds", "evaluations",
        "final_params_digest", "final_accuracy_hex",
    },
    "ScenarioRecord": {"scenario", "spec", "spec_digest", "overrides", "summary", "trace"},
}

#: the least each class can be built from (its required fields)
REQUIRED = {
    "AttackSpec": {"name": "alie"},
    "FaultSpec": {"kind": "dropout"},
    "CompressionSpec": {"name": "sign"},
    "TopologySpec": {"groups": 2},
    "ScenarioSpec": {"name": "t"},
    "CampaignSpec": {"name": "c", "base": {"name": "t"}},
    "RoundTrace": {
        "iteration": 0, "q": 0, "byzantine": (), "num_distorted": 0, "votes_digest": "a",
        "winners_digest": "b", "aggregate_digest": "c", "params_digest": "d",
        "mean_loss_hex": "0x0p+0",
    },
    "EvaluationTrace": {"iteration": 2, "test_loss_hex": "0x1p+0", "test_accuracy_hex": "0x1p-1"},
    "RunTrace": {"scenario": "t", "spec_digest": "e"},
    "ScenarioRecord": {
        "scenario": "t", "spec": {}, "spec_digest": "e", "overrides": {}, "summary": {},
        "trace": {},
    },
}


def test_the_pinned_set_is_frozen():
    declared = {
        cls.__name__: {f.name for f in dataclasses.fields(cls) if f.metadata["pinned"]}
        for cls in schema_classes()
    }
    assert declared == PINNED


@pytest.mark.parametrize("cls", sorted(schema_classes(), key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_a_default_instance_emits_exactly_its_pinned_keys(cls):
    required = REQUIRED.get(cls.__name__, {})
    assert set(required) == {f.name for f in dataclasses.fields(cls) if is_required(f)}
    instance = cls(**required)
    assert set(instance.to_dict()) == PINNED[cls.__name__]
    assert cls.from_dict(instance.to_dict()) == instance


def test_a_required_field_must_be_pinned():
    with pytest.raises(TypeError, match="pinned"):
        spec_field(int)
    spec_field(int, pinned=True)
    spec_field(int, default=0)


def test_a_field_added_later_cannot_move_a_digest_unless_pinned():
    """What DIGEST-001 pattern-matched in source now holds by construction."""

    @dataclasses.dataclass(frozen=True)
    class Before(Schema, where="section"):
        kind: str = spec_field(str, pinned=True, default="x")

    @dataclasses.dataclass(frozen=True)
    class After(Schema, where="section"):
        kind: str = spec_field(str, pinned=True, default="x")
        extra: "int | None" = spec_field(int, default=None)
        flag: bool = spec_field(bool, default=False)
        tags: tuple = spec_field((str,), default=())
        opts: dict = spec_field(dict, default_factory=dict)

    assert After().to_dict() == Before().to_dict() and After().digest() == Before().digest()
    assert After(flag=True, tags=("a",)).to_dict() == {"kind": "x", "flag": True, "tags": ["a"]}
    with pytest.raises(ConfigurationError, match=r"section\.extra must be an integer, got str '3'"):
        After.from_dict({"extra": "3"})
    assert After.from_dict({"extra": None}) == After()


def test_no_catalog_digest_holds_a_non_finite_value():
    for spec in all_scenarios():
        canonical = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
        assert "NaN" not in canonical and "Infinity" not in canonical
        assert spec.to_json() == json.dumps(spec.to_dict(), indent=2, sort_keys=True)


def test_a_non_finite_value_cannot_reach_a_canonical_form():
    spec = dataclasses.replace(
        get_scenario("mols-clean"), cluster=dataclasses.replace(
            get_scenario("mols-clean").cluster, params={"load": math.nan}
        )
    )
    with pytest.raises(ValueError, match="Out of range float"):
        spec.digest()
    with pytest.raises(ValueError, match="Out of range float"):
        spec.to_json()


# ---------------------------------------------------------------------------
# (b) A strategy from the table: every field's values come from its declared
# kind, its default, and whatever shipped documents already put there.  No section
# is spelled out, so a new field or section joins the fuzz with no test edit.
# The next PR's cross-mode fuzzer extends this with applicability.
# ---------------------------------------------------------------------------

SECTIONS = [
    cls for cls in schema_classes() if cls.__module__ == "repro.scenarios.spec"
]
JSON_LEAVES = st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=4) | st.floats(
    -1e3, 1e3, allow_nan=False
)


def _walk(instance, visit):
    """Call ``visit`` on a spec and on every section nested in it."""
    visit(instance)
    for field in dataclasses.fields(instance):
        value = getattr(instance, field.name)
        for item in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(item, Schema):
                _walk(item, visit)


def _shipped_values():
    """Every value a shipped document puts in each (class, field) — the only
    source of values that pass a section's enumerations (kinds, selections,
    dtypes).  An enumeration value no shipped document uses is listed here."""
    pool = collections.defaultdict(list)

    def visit(instance):
        for field in dataclasses.fields(instance):
            values = pool[type(instance), field.name]
            if getattr(instance, field.name) not in values:
                values.append(getattr(instance, field.name))

    unshipped = [{"name": "images", "data": {"kind": "images"}}]
    for document in SCENARIO_DOCUMENTS + unshipped:
        _walk(ScenarioSpec.from_dict(document), visit)
    return pool


SHIPPED_VALUES = _shipped_values()


def kind_strategy(kind, allow_inf=False):
    if kind is bool:
        return st.booleans()
    if kind is int:
        return st.integers(-2, 2**62)
    if kind is float:
        finite = st.floats(-1.0, 1e6, allow_nan=False)
        return finite | st.just(math.inf) if allow_inf else finite
    if kind is str:
        return st.text(max_size=6)
    if kind is dict:
        return st.dictionaries(st.text(max_size=4), JSON_LEAVES | st.lists(JSON_LEAVES, max_size=2), max_size=3)
    if isinstance(kind, (list, tuple)):
        return st.lists(kind_strategy(kind[0]), max_size=2).map(type(kind))
    return section(kind)


def field_strategy(cls, field):
    options = [kind_strategy(field.metadata["kind"], field.metadata["allow_inf"])]
    if SHIPPED_VALUES[cls, field.name]:
        options.append(st.sampled_from(SHIPPED_VALUES[cls, field.name]))
    if not is_required(field):
        options.append(st.builds(default_of, st.just(field)))
    return st.one_of(options)


def section(cls):
    fields = {f.name: field_strategy(cls, f) for f in dataclasses.fields(cls)}

    @st.composite
    def build(draw):
        try:
            return cls(**{name: draw(strategy) for name, strategy in fields.items()})
        except ConfigurationError:  # a range/enumeration validator said no
            return None

    return build().filter(lambda instance: instance is not None)



@pytest.mark.parametrize("cls", SECTIONS, ids=lambda c: c.__name__)
def test_generated_sections_round_trip_and_emit_only_what_differs(cls):
    """Over instances that passed every validator: the JSON round trip is the
    identity, the digest is stable, and a key is in the canonical dict iff it
    is pinned or differs from its default.  Every field must have been seen
    both at its default and away from it, so the whole table is exercised and
    a field the strategy cannot vary fails here, loudly."""
    at_default, away = set(), set()

    def visit(instance):
        canonical = instance.to_dict()
        for field in dataclasses.fields(instance):
            value = getattr(instance, field.name)
            expected = field.metadata["pinned"] or value != default_of(field)
            assert (field.name in canonical) == expected, (field.name, value)
            if type(instance) is cls:
                at_its_default = not is_required(field) and value == default_of(field)
                (at_default if at_its_default else away).add(field.name)

    @settings(max_examples=100, database=None, **SETTINGS)
    @given(instance=section(cls))
    def run(instance):
        canonical = instance.to_dict()
        again = cls.from_dict(json.loads(json.dumps(canonical, allow_nan=False)))
        assert again == instance
        assert again.to_dict() == canonical
        assert again.digest() == instance.digest() == cls.from_dict(canonical).digest()
        _walk(instance, visit)

    run()
    fields = dataclasses.fields(cls)
    assert {f.name for f in fields} - away == set()
    assert {f.name for f in fields if not is_required(f)} - at_default == set()


def test_the_strategy_covers_all_thirteen_sections():
    assert len(SECTIONS) == 13 and ScenarioSpec in SECTIONS


# ---------------------------------------------------------------------------
# (a) Mutation fuzz: one random edit of a valid document.  The loader returns
# or raises ConfigurationError — never a bare TypeError / ValueError /
# AttributeError / KeyError — and whatever it returns round-trips.
# ---------------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 2**63)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=5)
    | st.sampled_from(["inf", "false", "3", "", "mols-clean"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3) | st.sampled_from(["name", "kind", "value"]), children, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every (container path, key) in a JSON document, root keys included."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield prefix, key
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield prefix, index
            yield from _paths(child, prefix + (index,))


@st.composite
def mutated(draw, documents):
    document = json.loads(json.dumps(draw(st.sampled_from(documents))))
    if draw(st.integers(0, 19)) == 0:
        return draw(JSON_VALUES)  # the root itself is replaced
    prefix, key = draw(st.sampled_from(list(_paths(document))))
    node = document
    for step in prefix:
        node = node[step]
    action = draw(st.sampled_from(["replace", "replace", "delete", "add"]))
    if action == "replace":
        node[key] = draw(JSON_VALUES)
    elif action == "delete":
        del node[key]
    elif isinstance(node, dict):
        node[draw(st.text(min_size=1, max_size=6))] = draw(JSON_VALUES)
    else:
        node.append(draw(JSON_VALUES))
    return document


CAMPAIGN_DOCUMENTS = _json_files("examples/campaign_*.json") + [
    {
        "name": "mini",
        "base_scenario": "mols-alie-omniscient",
        "seed": 3,
        "grid": {
            "attack.schedule.q": [0, 2],
            "pipeline.aggregator": [{"label": "med", "value": "median"}, "mean"],
        },
    }
]
TRACE_DOCUMENTS = [
    json.loads(golden_path(name).read_text())
    for name in ("mols-alie-all-faults", "ramanujan-hier-async-group-quorum")
]
RECORD_DOCUMENTS = [execute_spec(get_scenario("mols-clean"), {"why": "fuzz"}).to_dict()]


def check_loader(cls, document):
    try:
        loaded = cls.from_dict(document)
    except ConfigurationError as exc:
        assert str(exc)
        return None
    canonical = loaded.to_dict()
    json.dumps(canonical, allow_nan=False)
    again = cls.from_dict(canonical)
    assert again == loaded
    assert again.digest() == loaded.digest()
    return loaded


def test_the_fuzz_families_cover_every_json_facing_class():
    assert len(SCENARIO_DOCUMENTS) == 46 + 2 + 4 and len(CAMPAIGN_DOCUMENTS) == 3
    for cls, documents in [
        (ScenarioSpec, SCENARIO_DOCUMENTS),
        (CampaignSpec, CAMPAIGN_DOCUMENTS),
        (RunTrace, TRACE_DOCUMENTS),
        (ScenarioRecord, RECORD_DOCUMENTS),
    ]:
        for document in documents:
            assert check_loader(cls, document) is not None
    assert {c.__name__ for c in schema_classes()} == set(PINNED)
    assert check_loader(RoundTrace, TRACE_DOCUMENTS[0]["rounds"][0]) is not None
    assert check_loader(EvaluationTrace, TRACE_DOCUMENTS[0]["evaluations"][0]) is not None


@settings(max_examples=300, **SETTINGS)
@given(document=mutated(SCENARIO_DOCUMENTS))
def test_mutated_scenarios_load_or_end_in_a_configuration_error(document):
    check_loader(ScenarioSpec, document)


@settings(max_examples=200, **SETTINGS)
@given(document=mutated(CAMPAIGN_DOCUMENTS))
def test_mutated_campaigns_load_or_end_in_a_configuration_error(document):
    campaign = check_loader(CampaignSpec, document)
    if campaign is not None and math.prod(len(axis.values) for axis in campaign.grid) <= 64:
        try:
            cells = campaign.expand()
        except ConfigurationError:  # a cell that is not a valid scenario
            return
        assert len({cell.spec.name for cell in cells}) == len(cells)


@settings(max_examples=200, **SETTINGS)
@given(document=mutated(TRACE_DOCUMENTS))
def test_mutated_traces_load_or_end_in_a_configuration_error(document):
    check_loader(RunTrace, document)


@settings(max_examples=200, **SETTINGS)
@given(document=mutated(RECORD_DOCUMENTS))
def test_mutated_records_load_or_end_in_a_configuration_error(document):
    check_loader(ScenarioRecord, document)
