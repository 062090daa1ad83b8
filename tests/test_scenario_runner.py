"""ScenarioRunner: end-to-end runs, determinism, and RNG stream isolation."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

import repro.cluster.topology as topology_module
import repro.core.pipelines as pipelines_module
from repro.exceptions import ConfigurationError, ReproError
from repro.scenarios import (
    ScenarioSpec,
    get_scenario,
    run_scenario,
)
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.trace import RunTrace, TraceMismatch


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
        assert result.history.final_accuracy == result.trace.final_accuracy

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
    """The trace observer digests what the round produced; it computes nothing."""

    @pytest.mark.parametrize(
        "scenario, kernel_home, kernel",
        [
            ("mols-alie-all-faults", pipelines_module, "majority_vote_votetensor"),
            ("ramanujan-hier-async-group-quorum", topology_module, "hierarchical_majority_vote"),
        ],
        ids=["flat", "hierarchical"],
    )
    def test_one_vote_per_observed_round(self, monkeypatch, scenario, kernel_home, kernel):
        """Algorithm 1 votes every file once per round — observed or not."""
        calls = []
        vote = getattr(kernel_home, kernel)

        def counting_vote(*args, **kwargs):
            calls.append(kernel)
            return vote(*args, **kwargs)

        # both names are resolved at call time by post_vote_matrix
        monkeypatch.setattr(kernel_home, kernel, counting_vote)
        spec = get_scenario(scenario)
        result = ScenarioRunner(spec).run()
        assert len(result.trace.rounds) == spec.training.num_iterations
        assert len(calls) == spec.training.num_iterations

    def test_observed_run_peaks_no_higher_than_an_unobserved_one(self):
        """A float32 hierarchical cell sized like the e2e campaign cells
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
        unobserved = peak_of(lambda: runner.build_trainer().train())
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


def test_trace_out_creates_parent_directories(tmp_path):
    result = run_named("mols-clean")
    nested = tmp_path / "deep" / "dir" / "trace.json"
    result.trace.write_json_file(nested)
    RunTrace.from_json_file(nested).assert_matches(result.trace)
