"""ScenarioRunner: end-to-end runs, determinism, and RNG stream isolation."""

from __future__ import annotations

import dataclasses
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

import repro.core.pipelines as pipelines_module
import repro.scenarios.runner as runner_module
from repro.campaigns import CampaignSpec
from repro.exceptions import ConfigurationError, ReproError
from repro.scenarios import (
    ScenarioSpec,
    get_scenario,
    run_scenario,
    scenario_names,
)
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.trace import RunTrace, TraceMismatch, hex_float


def run_named(name):
    return run_scenario(get_scenario(name))


class TestEndToEnd:
    def test_clean_run_produces_full_trace(self):
        result = run_named("mols-clean")
        spec = result.spec
        assert len(result.trace.rounds) == spec.training.num_iterations
        assert all(r.q == 0 for r in result.trace.rounds)
        assert result.trace.final_params_digest
        assert not np.isnan(result.trace.final_accuracy)
        assert hex_float(result.trace.final_accuracy) == result.trace.final_accuracy_hex

    def test_attacked_run_records_byzantine_sets(self):
        result = run_named("mols-alie-omniscient")
        assert all(r.q == 2 and len(r.byzantine) == 2 for r in result.trace.rounds)

    def test_ramping_schedule_shows_in_trace(self):
        result = run_named("mols-constant-ramping")
        assert [r.q for r in result.trace.rounds] == [0, 1, 2, 3]

    def test_rotating_adversary_moves_between_rounds(self):
        result = run_named("mols-revgrad-rotating")
        sets = [r.byzantine for r in result.trace.rounds]
        assert len(set(sets)) > 1  # the window actually rotates

    def test_straggler_timeouts_produce_round_time_and_drops(self):
        result = run_named("mols-alie-straggler-timeout")
        assert result.trace.total_simulated_time > 0.0
        dropped = [f for r in result.trace.rounds for f in r.faults if f["dropped"]]
        assert dropped  # with delay mean 1.0 > timeout 0.8, drops are expected

    def test_compression_changes_the_run(self):
        compressed = run_named("mols-constant-topk")
        plain_dict = get_scenario("mols-constant-topk").to_dict()
        del plain_dict["compression"]
        plain = run_scenario(ScenarioSpec.from_dict(plain_dict))
        assert (
            compressed.trace.rounds[0].votes_digest
            != plain.trace.rounds[0].votes_digest
        )

    def test_summary_row_shape(self):
        row = run_named("mols-alie-all-faults").summary()
        assert row["scenario"] == "mols-alie-all-faults"
        assert row["rounds"] == 4
        assert row["max_q"] == 2
        assert row["corrupted_messages"] > 0

    def test_summary_puts_realised_distortion_beside_the_prediction(self):
        """Independent noise does not collude: the graph predicts two files a
        round, but their Byzantine copies disagree, so no class reaches r'
        and both abstain — the vote distorts none."""
        result = run_named("mols-uniform-trimmed-mean")
        rounds = result.trace.rounds
        assert result.num_files == 25
        assert [r.num_distorted for r in rounds] == [2, 2, 2, 2]
        assert [len(r.realised_distorted) for r in rounds] == [0, 0, 0, 0]
        assert [len(r.abstained) for r in rounds] == [2, 2, 2, 2]
        row = result.summary()
        assert row["mean_predicted_distortion"] == pytest.approx(8 / 100)
        assert row["mean_realised_distortion"] == 0.0
        columns = list(row)
        assert (
            columns.index("mean_realised_distortion")
            == columns.index("mean_predicted_distortion") + 1
        )


class TestDeterminism:
    def test_identical_seeds_give_bit_identical_traces(self):
        one = run_named("mols-alie-all-faults")
        two = run_named("mols-alie-all-faults")
        one.trace.assert_matches(two.trace)

    def test_different_seed_diverges(self):
        base = get_scenario("mols-alie-omniscient").to_dict()
        base["seed"] = 123
        other = run_scenario(ScenarioSpec.from_dict(base))
        with pytest.raises(TraceMismatch):
            other.trace.assert_matches(run_named("mols-alie-omniscient").trace)

    def test_fault_streams_do_not_perturb_the_adversary(self):
        """Enabling fault injection must not change Byzantine selection or
        attack payload randomness (independent derived RNG streams)."""
        with_faults = run_named("mols-noise-dropout")
        spec_dict = get_scenario("mols-noise-dropout").to_dict()
        del spec_dict["faults"]
        without = run_scenario(ScenarioSpec.from_dict(spec_dict))
        for a, b in zip(with_faults.trace.rounds, without.trace.rounds):
            assert a.byzantine == b.byzantine

    def test_fresh_runner_state_does_not_leak_between_runs(self):
        runner_trace = ScenarioRunner(get_scenario("mols-noise-dropout")).run().trace
        again = ScenarioRunner(get_scenario("mols-noise-dropout")).run().trace
        runner_trace.assert_matches(again)


class TestObserverStaysOffTheDataPath:
    """The run loop digests what the round produced; it computes nothing."""

    @pytest.mark.parametrize(
        "scenario",
        ["mols-alie-all-faults", "ramanujan-hier-async-group-quorum"],
        ids=["flat", "hierarchical"],
    )
    def test_one_vote_per_observed_round(self, monkeypatch, scenario):
        """Algorithm 1 votes every file once per round — observed or not,
        with or without worker groups: one kernel, called once a round."""
        calls = []
        vote = pipelines_module.majority_vote_votetensor

        def counting_vote(*args, **kwargs):
            calls.append(scenario)
            return vote(*args, **kwargs)

        # the name is resolved at call time by the pipeline's vote
        monkeypatch.setattr(pipelines_module, "majority_vote_votetensor", counting_vote)
        spec = get_scenario(scenario)
        result = ScenarioRunner(spec).run()
        assert len(result.trace.rounds) == spec.training.num_iterations
        assert len(calls) == spec.training.num_iterations

    def test_evaluations_follow_the_eval_schedule(self):
        """Every ``eval_every``-th round and the last are evaluated: the same
        numbers as stepping a fresh trainer and evaluating it at those rounds."""
        spec = get_scenario("mols-alie-omniscient")
        result = run_scenario(spec)
        trainer = ScenarioRunner(spec).build_trainer()
        rounds, every = spec.training.num_iterations, spec.training.eval_every
        expected = []
        for iteration in range(rounds):
            trainer.run_iteration(iteration)
            if (iteration + 1) % every == 0 or iteration == rounds - 1:
                expected.append((iteration, trainer.evaluate()))
        evaluations = result.trace.evaluations
        assert len(evaluations) >= 2
        assert [e.iteration for e in evaluations] == [i for i, _ in expected]
        assert [e.test_accuracy_hex for e in evaluations] == [
            hex_float(m["accuracy"]) for _, m in expected
        ]
        assert [e.test_loss_hex for e in evaluations] == [hex_float(m["loss"]) for _, m in expected]
        assert evaluations[-1].test_accuracy_hex == result.trace.final_accuracy_hex
        # a figure curve is rebuilt from the stored form alone
        stored = RunTrace.from_dict(json.loads(result.trace.to_json()))
        assert stored.evaluations == evaluations

    def test_observed_run_peaks_no_higher_than_an_unobserved_one(self):
        """A float32 grouped async cell sized like the e2e campaign cells
        (f = 25, r = 5, d ~ 11k).  Hashing the votes must not build the
        (f, r, d) cube, its float64 copy or a bytes copy: the observed run's
        allocation peak stays at the round's own."""
        data = get_scenario("ramanujan-hier-async-group-quorum").to_dict()
        data["data"]["dim"] = 100
        data["model"] = {"hidden": [64, 64]}
        data["dtype"] = "float32"
        spec = ScenarioSpec.from_dict(data)

        def peak_of(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        runner = ScenarioRunner(spec)
        trainer = runner.build_trainer()
        assert trainer.cluster.assignment.num_edges == 125
        assert 10_000 < trainer.server.params.size < 12_000
        def run_unobserved():
            trainer = runner.build_trainer()
            for iteration in range(spec.training.num_iterations):
                trainer.run_iteration(iteration)
            trainer.evaluate()

        unobserved = peak_of(run_unobserved)
        observed = peak_of(runner.run)
        assert observed <= 1.05 * unobserved, (observed, unobserved)


class TestTraceSerialization:
    def test_trace_json_round_trip_preserves_equality(self, tmp_path):
        result = run_named("draco-clean-stragglers")
        path = tmp_path / "trace.json"
        result.trace.write_json_file(path)
        loaded = RunTrace.from_json_file(path)
        result.trace.assert_matches(loaded)
        assert loaded.total_simulated_time == result.trace.total_simulated_time

    def test_mismatch_reports_round_and_stage(self):
        one = run_named("mols-clean").trace
        two = run_named("mols-clean").trace
        tampered = two.rounds[1].to_dict()
        tampered["aggregate_digest"] = "0" * 16
        from repro.scenarios.trace import RoundTrace

        two.rounds[1] = RoundTrace.from_dict(tampered)
        with pytest.raises(TraceMismatch, match="round 1: aggregate_digest"):
            one.assert_matches(two)

    def test_mismatch_reports_evaluated_round_and_field(self):
        """A replay whose test accuracy differs in one evaluated round that is
        not the last fails there, by iteration and field."""
        one = run_named("mols-alie-omniscient").trace
        two = run_named("mols-alie-omniscient").trace
        first = two.evaluations[0]
        assert len(two.evaluations) >= 2
        two.evaluations[0] = dataclasses.replace(
            first, test_accuracy_hex=hex_float(float.fromhex(first.test_accuracy_hex) + 0.5)
        )
        assert two.final_accuracy_hex == one.final_accuracy_hex
        with pytest.raises(
            TraceMismatch, match=f"evaluation {first.iteration}: test_accuracy_hex diverged"
        ):
            one.assert_matches(two)

    def test_mismatch_reports_format_version(self):
        one = run_named("mols-clean").trace
        two = run_named("mols-clean").trace
        two.format_version = 1
        with pytest.raises(TraceMismatch, match="trace format 2 != golden 1"):
            one.assert_matches(two)

    @pytest.mark.parametrize(
        "malform",
        [
            lambda trace: [trace],
            lambda trace: {**trace, "rounds": [{**trace["rounds"][0], "iteration": "x"}]},
            lambda trace: {**trace, "rounds": [{**trace["rounds"][0], "byzantine": 3}]},
        ],
        ids=["list-at-root", "iteration-not-a-number", "byzantine-not-a-list"],
    )
    def test_malformed_trace_file_ends_in_a_named_error(self, tmp_path, malform):
        """Well-formed JSON of the wrong shape is still a ReproError, never a
        bare TypeError/ValueError out of ``RoundTrace.from_dict``."""
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(malform(run_named("mols-clean").trace.to_dict())))
        with pytest.raises(ReproError, match="cannot load trace"):
            RunTrace.from_json_file(path)

    @pytest.mark.parametrize("version", [None, 4], ids=["v1-no-version", "v4"])
    def test_a_trace_of_another_format_is_refused_by_name(self, tmp_path, version):
        """A v1 trace (no ``format_version``) or a newer one names the path,
        the format found and how to re-record it.  (v3 is the float32 format
        this build writes; ``tests/test_digest.py`` pins that a float32
        golden recorded as v2 fails its replay on the format.)"""
        document = run_named("mols-clean").trace.to_dict()
        del document["format_version"]
        if version is not None:
            document["format_version"] = version
        path = tmp_path / "old.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ReproError) as caught:
            RunTrace.from_json_file(path)
        message = str(caught.value)
        assert str(path) in message
        assert f"trace format {version or 1}," in message
        assert "`repro scenario record`" in message

    def test_undecodable_trace_file_ends_in_a_named_error(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ReproError, match="cannot load trace"):
            RunTrace.from_json_file(path)


class TestValidation:
    def test_indivisible_batch_size_is_rejected(self):
        data = get_scenario("mols-clean").to_dict()
        data["training"]["batch_size"] = 76  # f = 25 files
        with pytest.raises(ConfigurationError, match="divisible"):
            run_scenario(ScenarioSpec.from_dict(data))

    def test_unknown_attack_name_is_rejected(self):
        data = get_scenario("mols-clean").to_dict()
        data["attack"] = {"name": "nope", "schedule": {"kind": "static", "q": 1}}
        with pytest.raises(ConfigurationError, match="unknown attack"):
            run_scenario(ScenarioSpec.from_dict(data))

    def test_rotating_schedule_with_omniscient_selection_is_rejected(self):
        data = get_scenario("mols-revgrad-rotating").to_dict()
        data["attack"]["selection"] = "omniscient"
        with pytest.raises(ConfigurationError, match="rotating"):
            run_scenario(ScenarioSpec.from_dict(data))

    def test_bad_aggregator_params_are_wrapped(self):
        data = get_scenario("mols-clean").to_dict()
        data["pipeline"] = {
            "kind": "byzshield",
            "aggregator": "median",
            "aggregator_params": {"bogus": 1},
        }
        with pytest.raises(ConfigurationError, match="bad parameters"):
            run_scenario(ScenarioSpec.from_dict(data))

    @pytest.mark.parametrize(
        "section, value, named",
        [
            ("cluster", {"scheme": "mols", "params": {"bogus": 1}}, "scheme 'mols'"),
            ("attack", {"name": "alie", "params": {"bogus": 1}}, "attack 'alie'"),
            ("faults", [{"kind": "dropout", "params": {"bogus": 1}}], "fault 'dropout'"),
            ("compression", {"name": "sign", "params": {"bogus": 1}}, "compressor 'sign'"),
            # a params key that collides with the factory's own first argument
            ("attack", {"name": "alie", "params": {"name": "x"}}, "attack 'alie'"),
        ],
    )
    def test_bad_params_of_every_pluggable_section_are_wrapped(self, section, value, named):
        data = get_scenario("mols-clean").to_dict()
        data[section] = value
        with pytest.raises(ConfigurationError, match=f"bad parameters for {named}"):
            run_scenario(ScenarioSpec.from_dict(data))

    @pytest.mark.parametrize(
        "section, value, message",
        [
            ("cluster", {"scheme": "mols", "params": {"load": 4, "replication": 3}},
             "scenario.cluster.params: load l must be prime, got 4"),
            ("faults", [{"kind": "stragglers", "params": {"count": 1}},
                        {"kind": "corruption", "params": {"probability": -1}}],
             "scenario.faults[1].params: probability must be in [0, 1], got -1"),
            ("compression", {"name": "topk", "params": {"fraction": 0}},
             "scenario.compression.params: fraction must be in (0, 1], got 0"),
            ("attack", {"name": "alie", "params": {"z": -1}, "schedule": {"q": 1}},
             "scenario.attack.params: z must be a non-negative finite value, got -1"),
            ("attack", {"name": "alie", "schedule": {"kind": "ramping", "q": 1}},
             "scenario.attack.schedule: ramping schedule requires q_end"),
            ("pipeline", {"aggregator": "trimmed_mean", "aggregator_params": {"trim": -1}},
             "scenario.pipeline.aggregator_params: trim must be non-negative, got -1"),
            ("training", {"batch_size": 0}, "scenario.training: batch_size must be positive, got 0"),
        ],
        ids=["scheme", "fault", "compressor", "attack", "schedule", "aggregator", "training"],
    )
    def test_a_value_a_constructor_refuses_names_its_section(self, section, value, message):
        data = get_scenario("mols-clean").to_dict()
        data[section] = value
        with pytest.raises(ConfigurationError) as excinfo:
            ScenarioRunner(ScenarioSpec.from_dict(data)).check()
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "base, pipeline, rows",
        [
            # ByzShield reduces the f = 25 voted files: Bulyan(6) needs 27
            ("ramanujan-bulyan-minmax-rotating",
             {"kind": "byzshield", "aggregator": "bulyan",
              "aggregator_params": {"num_byzantine": 6}}, 25),
            # DETOX reduces its 5 vote groups, not its 15 workers
            ("detox-multikrum-revgrad-dropout",
             {"kind": "detox", "aggregator": "multi_krum",
              "aggregator_params": {"num_byzantine": 2}}, 5),
            # vanilla reduces the K = 15 worker rows
            ("vanilla-bulyan-alie",
             {"kind": "vanilla", "aggregator": "bulyan",
              "aggregator_params": {"num_byzantine": 4}}, 15),
            ("mols-uniform-trimmed-mean",
             {"kind": "byzshield", "aggregator": "trimmed_mean",
              "aggregator_params": {"trim": 13}}, 25),
        ],
        ids=["byzshield-files", "detox-groups", "vanilla-workers", "trimmed-mean"],
    )
    def test_an_aggregator_a_full_round_cannot_feed_is_refused_at_build(
        self, base, pipeline, rows, monkeypatch
    ):
        """It used to build, pay the data / model / selection set-up and die in
        round 0 with the aggregator's AggregationError."""
        data = get_scenario(base).to_dict()
        data["pipeline"] = pipeline
        runner = ScenarioRunner(ScenarioSpec.from_dict(data))
        monkeypatch.setattr(
            runner, "_build_datasets", lambda: pytest.fail("set-up was paid for")
        )
        with pytest.raises(
            ConfigurationError,
            match=rf"^scenario\.pipeline\.aggregator_params: .* reduces {rows}$",
        ):
            runner.build_trainer()

    def test_an_aggregator_at_exactly_its_minimum_builds(self):
        data = get_scenario("vanilla-bulyan-alie").to_dict()
        data["pipeline"]["aggregator_params"] = {"num_byzantine": 3}  # 4q+3 = 15 = K
        run_scenario(ScenarioSpec.from_dict(data))


REPO = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = REPO / "examples"
WORKLOADS = REPO / "benchmarks" / "e2e" / "workloads"
RUNNABLE = (
    [("catalog", name) for name in scenario_names()]
    + [("example", path.name) for path in sorted(EXAMPLES.glob("*.json"))]
    + [("e2e", path.name) for path in sorted(WORKLOADS.glob("*.json"))]
)


def runnable_specs(source, name):
    """The specs a catalog name, an example file (a scenario, or a campaign's
    every cell) or an e2e workload template (read only) stands for."""
    if source == "catalog":
        return [get_scenario(name)]
    if source == "e2e":
        return [ScenarioSpec.from_json_file(WORKLOADS / name)]
    raw = json.loads((EXAMPLES / name).read_text())
    if "grid" in raw:
        return [cell.spec for cell in CampaignSpec.from_dict(raw).expand()]
    return [ScenarioSpec.from_dict(raw)]


@pytest.mark.parametrize("source, name", RUNNABLE, ids=[f"{s}:{n}" for s, n in RUNNABLE])
def test_check_refuses_nothing_runnable_and_builds_no_data(source, name, monkeypatch):
    """Every spec the project runs passes ``ScenarioRunner.check``, which
    builds its components but neither its data nor its model."""
    def built(*args, **kwargs):
        raise AssertionError("check() built the data or the model")

    monkeypatch.setattr(ScenarioRunner, "_build_datasets", built)
    monkeypatch.setattr(runner_module, "build_mlp", built)
    specs = runnable_specs(source, name)
    assert specs
    for spec in specs:
        parts = ScenarioRunner(spec).check()
        assert spec.training.batch_size % parts.assignment.num_files == 0


def test_trace_out_creates_parent_directories(tmp_path):
    result = run_named("mols-clean")
    nested = tmp_path / "deep" / "dir" / "trace.json"
    result.trace.write_json_file(nested)
    RunTrace.from_json_file(nested).assert_matches(result.trace)
