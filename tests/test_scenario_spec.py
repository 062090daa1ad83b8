"""ScenarioSpec construction, validation and dict/JSON round-trips."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.scenarios import (
    AttackSpec,
    FaultSpec,
    PipelineSpec,
    RuntimeSpec,
    ScenarioSpec,
    ScheduleSpec,
    get_scenario,
    scenario_names,
)


def minimal_dict(**overrides):
    data = {"name": "t", "cluster": {"scheme": "mols", "params": {"load": 5, "replication": 3}}}
    data.update(overrides)
    return data


class TestFromDict:
    def test_defaults_fill_unspecified_sections(self):
        spec = ScenarioSpec.from_dict(minimal_dict())
        assert spec.seed == 0
        assert spec.pipeline.kind == "byzshield"
        assert spec.attack is None
        assert spec.faults == ()
        assert spec.compression is None

    def test_requires_name(self):
        with pytest.raises(ConfigurationError, match="name"):
            ScenarioSpec.from_dict({"seed": 3})

    def test_rejects_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            ScenarioSpec.from_dict(minimal_dict(typo_section={}))

    def test_rejects_unknown_nested_key(self):
        with pytest.raises(ConfigurationError, match="pipeline"):
            ScenarioSpec.from_dict(minimal_dict(pipeline={"kind": "byzshield", "agg": "x"}))

    def test_rejects_unknown_pipeline_kind(self):
        with pytest.raises(ConfigurationError, match="pipeline kind"):
            PipelineSpec(kind="magic")

    def test_rejects_unknown_fault_kind(self):
        with pytest.raises(ConfigurationError, match="fault kind"):
            FaultSpec(kind="gremlins")

    def test_rejects_unknown_selection(self):
        with pytest.raises(ConfigurationError, match="selection"):
            AttackSpec(name="alie", selection="psychic")

    def test_ramping_schedule_requires_q_end(self):
        spec = ScheduleSpec(kind="ramping", q=0, q_end=4)
        assert spec.q_end == 4


NAN = float("nan")

#: input -> the dotted location the error must start with.  The first ten
#: escaped as bare TypeError / ValueError / AttributeError before the field
#: table; the next six loaded and were silently mis-read ("false" -> True,
#: "16" -> (1, 6), 3.7 -> 3, true -> 1, null -> "None", NaN -> NaN); the rest
#: used to be coerced and are now rejected by the one type policy.
MALFORMED = [
    pytest.param({"seed": "abc"}, "scenario.seed must be an integer, got str 'abc'", id="seed-word"),
    pytest.param({"model": {"hidden": 5}}, "scenario.model.hidden must be a list", id="hidden-int"),
    pytest.param({"cluster": None}, "scenario.cluster must be a mapping, got NoneType", id="cluster-null"),
    pytest.param({"cluster": {"params": [1, 2]}}, "scenario.cluster.params must be a mapping", id="params-list"),
    pytest.param({"faults": [1]}, r"scenario.faults\[0\] must be a mapping", id="fault-int"),
    pytest.param({"runtime": {"deadline": "soon"}}, 'scenario.runtime.deadline must be a finite number or "inf"', id="deadline-word"),
    pytest.param({"pipeline": {"vote_tolerance": None}}, "scenario.pipeline.vote_tolerance must be a finite number", id="tolerance-null"),
    pytest.param({"topology": {"groups": "two"}}, "scenario.topology.groups must be an integer", id="groups-word"),
    pytest.param({"training": {"batch_size": [1]}}, "scenario.training.batch_size must be an integer", id="batch-size-list"),
    pytest.param(None, "scenario must be a mapping, got NoneType", id="root-null"),
    pytest.param({"runtime": {"quorum": 2, "partial": "false"}}, "scenario.runtime.partial must be true or false, got str 'false'", id="partial-string-false"),
    pytest.param({"model": {"hidden": "16"}}, "scenario.model.hidden must be a list, got str '16'", id="hidden-string"),
    pytest.param({"seed": 3.7}, "scenario.seed must be an integer, got float 3.7", id="seed-fraction"),
    pytest.param({"seed": True}, "scenario.seed must be an integer, got bool True", id="seed-true"),
    pytest.param({"name": None}, "scenario.name must be a string, got NoneType", id="name-null"),
    pytest.param({"pipeline": {"vote_tolerance": NAN}}, "scenario.pipeline.vote_tolerance must be a finite number, got float nan", id="tolerance-nan"),
    pytest.param({"seed": "3"}, "scenario.seed must be an integer, got str '3'", id="seed-string-digits"),
    pytest.param({"seed": 3.0}, "scenario.seed must be an integer, got float 3.0", id="seed-float-integral"),
    pytest.param({"runtime": {"quorum": 2, "partial": 1}}, "scenario.runtime.partial must be true or false, got int 1", id="partial-int"),
    pytest.param({"name": 7}, "scenario.name must be a string, got int 7", id="name-int"),
    pytest.param({"dtype": 32}, "scenario.dtype must be a string", id="dtype-int"),
    pytest.param({"training": {"learning_rate": "0.1"}}, "scenario.training.learning_rate must be a finite number", id="learning-rate-string"),
    pytest.param({"training": {"learning_rate": float("inf")}}, "scenario.training.learning_rate must be a finite number", id="learning-rate-inf"),
    pytest.param({"data": {"partition": {"alpha": NAN}}}, "scenario.data.partition.alpha must be a finite number", id="alpha-nan"),
    pytest.param({"attack": {"name": "alie", "schedule": {"q": "2"}}}, "scenario.attack.schedule.q must be an integer", id="q-string"),
    pytest.param({"attack": {"name": "alie", "params": {"z": NAN}}}, "scenario.attack.params.z must be a finite number", id="params-nested-nan"),
    pytest.param({"cluster": {"params": {1: 2}}}, "scenario.cluster.params must be a mapping with string keys", id="params-int-key"),
    pytest.param({"attack": {}}, r"scenario.attack requires 'name' \(missing key\)", id="attack-without-name"),
    pytest.param({"compression": None, "runtime": None}, "scenario.runtime must be a mapping", id="runtime-null"),
]


class TestMalformedInput:
    @pytest.mark.parametrize("overrides, message", MALFORMED)
    def test_ends_in_a_configuration_error_naming_the_location(self, overrides, message):
        data = None if overrides is None else {"name": "t", **overrides}
        with pytest.raises(ConfigurationError, match="^" + message):
            ScenarioSpec.from_dict(data)

    def test_null_is_accepted_exactly_where_the_default_is_none(self):
        spec = ScenarioSpec.from_dict(
            minimal_dict(attack=None, compression=None, topology=None,
                         pipeline={"block_size": None}, runtime={"deadline": None})
        )
        assert spec == ScenarioSpec.from_dict(minimal_dict())

    def test_integers_are_accepted_where_a_float_is_declared(self):
        spec = ScenarioSpec.from_dict(minimal_dict(data={"separation": 3}))
        assert spec.data.separation == 3.0 and isinstance(spec.data.separation, float)

    def test_nan_tolerance_is_rejected_by_the_validator_too(self):
        with pytest.raises(ConfigurationError, match="vote_tolerance must be non-negative"):
            PipelineSpec(vote_tolerance=NAN)

    def test_loaded_params_share_nothing_with_the_input(self):
        data = minimal_dict(attack={"name": "alie", "params": {"nested": {"z": [1.0]}}})
        spec = ScenarioSpec.from_dict(data)
        data["attack"]["params"]["nested"]["z"].append(2.0)
        assert spec.attack.params == {"nested": {"z": [1.0]}}

    def test_undecodable_spec_file_raises_configuration_error(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigurationError, match="cannot load scenario spec"):
            ScenarioSpec.from_json_file(path)


class TestRoundTrip:
    def test_dict_round_trip_is_identity(self):
        spec = get_scenario("mols-alie-all-faults")
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_json_round_trip_is_identity(self):
        spec = get_scenario("detox-multikrum-revgrad-dropout")
        again = ScenarioSpec.from_dict(json.loads(spec.to_json()))
        assert again.digest() == spec.digest()

    def test_json_file_round_trip(self, tmp_path):
        spec = get_scenario("ramanujan-constant-rotating")
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert ScenarioSpec.from_json_file(path).digest() == spec.digest()

    def test_bad_json_file_raises_configuration_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="cannot load"):
            ScenarioSpec.from_json_file(path)


class TestRuntimeSpec:
    def test_default_is_synchronous_and_serializes_to_nothing(self):
        runtime = RuntimeSpec()
        assert not runtime.is_event
        assert runtime.to_dict() == {}
        # Synchronous specs carry no runtime section at all, so every spec
        # digest recorded before the event engine existed is unchanged.
        assert "runtime" not in get_scenario("mols-clean").to_dict()

    def test_event_scenarios_round_trip(self):
        spec = get_scenario("ramanujan-async-quorum-partial")
        assert spec.runtime.is_event
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_infinite_deadline_serializes_as_string(self):
        runtime = RuntimeSpec(deadline=float("inf"))
        assert runtime.to_dict() == {"deadline": "inf"}
        again = RuntimeSpec.from_dict(runtime.to_dict())
        assert again.deadline == float("inf")
        assert again == runtime

    def test_from_dict_parses_fields(self):
        runtime = RuntimeSpec.from_dict(
            {"deadline": 0.4, "quorum": 2, "partial": True}
        )
        assert runtime == RuntimeSpec(deadline=0.4, quorum=2, partial=True)

    def test_rejects_unknown_key(self):
        with pytest.raises(ConfigurationError, match="runtime"):
            RuntimeSpec.from_dict({"deadlnie": 0.4})

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="deadline"):
            RuntimeSpec(deadline=0.0)
        with pytest.raises(ConfigurationError, match="quorum"):
            RuntimeSpec(quorum=0)
        with pytest.raises(ConfigurationError, match="partial"):
            RuntimeSpec(partial=True)

    def test_runtime_changes_the_spec_digest(self):
        base = get_scenario("mols-clean")
        data = base.to_dict()
        data["runtime"] = {"quorum": 2}
        assert ScenarioSpec.from_dict(data).digest() != base.digest()


class TestDigest:
    def test_digest_is_stable_across_instances(self):
        assert (
            get_scenario("mols-clean").digest() == get_scenario("mols-clean").digest()
        )

    def test_digest_changes_with_any_field(self):
        base = get_scenario("mols-clean")
        data = base.to_dict()
        data["seed"] = 1
        assert ScenarioSpec.from_dict(data).digest() != base.digest()


class TestCatalog:
    def test_matrix_is_large_enough(self):
        assert len(scenario_names()) >= 20

    def test_matrix_covers_schemes_attacks_and_faults(self):
        specs = [get_scenario(name) for name in scenario_names()]
        schemes = {s.cluster.scheme for s in specs}
        attacks = {s.attack.name for s in specs if s.attack is not None}
        fault_kinds = {f.kind for s in specs for f in s.faults}
        schedules = {s.attack.schedule.kind for s in specs if s.attack is not None}
        assert {"mols", "ramanujan", "frc", "baseline"} <= schemes
        assert len(attacks) >= 3
        assert {"stragglers", "dropout", "corruption"} <= fault_kinds
        assert {"static", "ramping", "rotating"} <= schedules

    def test_unknown_scenario_name(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            get_scenario("not-a-scenario")
