"""Campaign engine: spec loading, grid expansion, store resumability and
parallel-vs-serial bit-identity."""

from __future__ import annotations

import json

import pytest

from repro.campaigns import (
    CampaignExecutor,
    CampaignRunResult,
    CampaignSpec,
    ResultStore,
    ScenarioRecord,
    accuracy_vs_q_rows,
    campaign_report,
    execute_spec,
    find_q_axis,
    run_specs,
)
from repro.exceptions import ConfigurationError, ReproError
from repro.scenarios import ScenarioRunner, get_scenario


def mini_dict(**overrides):
    """A 4-scenario campaign small enough for end-to-end tests (~10 ms/run)."""
    data = {
        "name": "mini",
        "base_scenario": "mols-alie-omniscient",
        "seed": 3,
        "grid": {
            "attack.schedule.q": [0, 2],
            "pipeline.aggregator": ["median", "mean"],
        },
    }
    data.update(overrides)
    return data


class TestSpecLoading:
    def test_requires_name(self):
        with pytest.raises(ConfigurationError, match="name"):
            CampaignSpec.from_dict({"base_scenario": "mols-clean"})

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            CampaignSpec.from_dict(mini_dict(typo_section=1))

    def test_requires_exactly_one_base(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            CampaignSpec.from_dict({"name": "x", "grid": {}})
        with pytest.raises(ConfigurationError, match="exactly one"):
            CampaignSpec.from_dict(
                {"name": "x", "base_scenario": "mols-clean", "base": {"name": "y"}}
            )

    def test_inline_base_is_validated_eagerly(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            CampaignSpec.from_dict(
                {"name": "x", "base": {"name": "y", "bogus_section": {}}}
            )

    def test_unknown_base_scenario_raises(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            CampaignSpec.from_dict({"name": "x", "base_scenario": "no-such"})

    def test_rejects_name_axis_and_empty_values(self):
        with pytest.raises(ConfigurationError, match="name"):
            CampaignSpec.from_dict(mini_dict(grid={"name": ["a", "b"]}))
        with pytest.raises(ConfigurationError, match="no values"):
            CampaignSpec.from_dict(mini_dict(grid={"attack.schedule.q": []}))

    def test_rejects_duplicate_value_labels(self):
        grid = {"pipeline.aggregator": [
            {"label": "same", "value": "median"},
            {"label": "same", "value": "mean"},
        ]}
        with pytest.raises(ConfigurationError, match="duplicate value labels"):
            CampaignSpec.from_dict(mini_dict(grid=grid))

    def test_rejects_unknown_seed_policy(self):
        with pytest.raises(ConfigurationError, match="seed_policy"):
            CampaignSpec.from_dict(mini_dict(seed_policy="chaotic"))

    def test_grid_must_be_a_mapping(self):
        with pytest.raises(ConfigurationError, match="grid"):
            CampaignSpec.from_dict(mini_dict(grid=["attack.schedule.q"]))

    @pytest.mark.parametrize(
        "data, message",
        [
            pytest.param({"name": "c", "base": [1]}, "campaign.base must be a mapping", id="base-list"),
            pytest.param({"name": "c", "base": "mols-clean"}, "campaign.base must be a mapping", id="base-name"),
            pytest.param(mini_dict(seed="x"), "campaign.seed must be an integer, got str 'x'", id="seed-word"),
            pytest.param(mini_dict(grid={3: [1]}), "campaign.grid must be a mapping with string keys", id="grid-int-path"),
            pytest.param(mini_dict(grid={"seed": [float("nan")]}), r"campaign.grid.seed\[0\] must be a finite number", id="grid-nan"),
            pytest.param(mini_dict(base_scenario=["mols-clean"]), "unknown scenario", id="base-scenario-list"),
            pytest.param(mini_dict(name=None), "campaign.name must be a string", id="name-null"),
            pytest.param({"name": "c", "base": {"seed": "x"}}, "campaign.base is not a valid scenario: scenario.seed must be an integer", id="base-seed-word"),
            pytest.param([mini_dict()], "campaign must be a mapping, got list", id="root-list"),
        ],
    )
    def test_malformed_input_ends_in_a_configuration_error(self, data, message):
        """All but the last two escaped as bare TypeError / ValueError /
        AttributeError before the field table."""
        with pytest.raises(ConfigurationError, match="^" + message):
            CampaignSpec.from_dict(data)

    def test_inline_base_takes_the_campaign_name_and_is_copied(self):
        base = {"cluster": {"scheme": "mols", "params": {"load": 5, "replication": 3}}}
        campaign = CampaignSpec.from_dict({"name": "c", "base": base})
        assert campaign.base["name"] == "c"
        base["cluster"]["params"]["load"] = 7
        assert campaign.base["cluster"]["params"]["load"] == 5
        named = CampaignSpec.from_dict({"name": "c", "base": {**base, "name": "own"}})
        assert named.base["name"] == "own"

    def test_json_file_round_trip(self, tmp_path):
        campaign = CampaignSpec.from_dict(mini_dict())
        path = tmp_path / "campaign.json"
        path.write_text(campaign.to_json())
        again = CampaignSpec.from_json_file(path)
        assert again == campaign
        assert again.digest() == campaign.digest()

    def test_bad_json_file_raises(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError, match="cannot load"):
            CampaignSpec.from_json_file(path)


class TestDigestStability:
    def test_campaign_digest_is_pinned(self):
        """The digest names the result directory; this value changing means
        every existing store is orphaned — bump deliberately."""
        assert CampaignSpec.from_dict(mini_dict()).digest() == "faa553cbed694075"

    def test_expanded_seeds_and_digests_are_pinned(self):
        expanded = CampaignSpec.from_dict(mini_dict()).expand()
        assert [(s.spec.name, s.spec.seed, s.spec.digest()) for s in expanded] == [
            ("mini/q=0,aggregator=median", 1429249486629000889, "66ab5f248149e6dc"),
            ("mini/q=0,aggregator=mean", 6616726963829021013, "c206c563df2c1ce1"),
            ("mini/q=2,aggregator=median", 1349824509233761446, "6fb7c3ce41fb25dd"),
            ("mini/q=2,aggregator=mean", 920690088119628389, "53d59334136d1b73"),
        ]

    def test_digest_changes_with_grid_content(self):
        base = CampaignSpec.from_dict(mini_dict())
        grown = CampaignSpec.from_dict(
            mini_dict(grid={"attack.schedule.q": [0, 2, 4],
                            "pipeline.aggregator": ["median", "mean"]})
        )
        assert grown.digest() != base.digest()


class TestExpansion:
    def test_expansion_is_deterministic(self):
        campaign = CampaignSpec.from_dict(mini_dict())
        first = [(s.spec.name, s.spec.seed, s.spec.digest()) for s in campaign.expand()]
        second = [(s.spec.name, s.spec.seed, s.spec.digest()) for s in campaign.expand()]
        assert first == second

    def test_axis_declaration_order_is_irrelevant(self):
        """Axes are sorted by path, so dict insertion order cannot change
        the expansion (or the digest)."""
        forward = CampaignSpec.from_dict(mini_dict())
        reordered = CampaignSpec.from_dict(
            mini_dict(grid={
                "pipeline.aggregator": ["median", "mean"],
                "attack.schedule.q": [0, 2],
            })
        )
        assert reordered.digest() == forward.digest()
        assert [s.spec.digest() for s in reordered.expand()] == [
            s.spec.digest() for s in forward.expand()
        ]

    def test_adding_a_value_keeps_existing_cells_seeds(self):
        """Seeds derive from the cell's name, not its index: growing an axis
        must not reshuffle the seeds (or digests) of already-run cells."""
        small = {s.spec.name: s.spec for s in CampaignSpec.from_dict(mini_dict()).expand()}
        grown = CampaignSpec.from_dict(
            mini_dict(grid={"attack.schedule.q": [0, 2, 4],
                            "pipeline.aggregator": ["median", "mean"]})
        ).expand()
        unchanged = [s for s in grown if s.spec.name in small]
        assert len(unchanged) == 4
        for scenario in unchanged:
            assert scenario.spec == small[scenario.spec.name]

    def test_overrides_land_in_the_spec(self):
        expanded = CampaignSpec.from_dict(mini_dict()).expand()
        by_name = {s.spec.name: s.spec for s in expanded}
        spec = by_name["mini/q=2,aggregator=mean"]
        assert spec.attack is not None and spec.attack.schedule.q == 2
        assert spec.pipeline.aggregator == "mean"

    def test_empty_grid_expands_to_the_base_alone(self):
        campaign = CampaignSpec.from_dict(mini_dict(grid={}))
        expanded = campaign.expand()
        assert len(expanded) == 1
        assert expanded[0].spec.name == "mini"

    def test_labeled_dict_values(self):
        campaign = CampaignSpec.from_dict(mini_dict(grid={
            "pipeline": [
                {"label": "median", "value": {"kind": "byzshield", "aggregator": "median"}},
                {"label": "mom", "value": {"kind": "byzshield", "aggregator": "median_of_means",
                                           "aggregator_params": {"num_groups": 5}}},
            ],
        }))
        expanded = campaign.expand()
        assert [s.spec.name for s in expanded] == ["mini/pipeline=median", "mini/pipeline=mom"]
        assert expanded[1].spec.pipeline.aggregator == "median_of_means"

    def test_fixed_seed_policy_keeps_the_base_seed(self):
        campaign = CampaignSpec.from_dict(mini_dict(seed_policy="fixed"))
        base_seed = get_scenario("mols-alie-omniscient").seed
        assert all(s.spec.seed == base_seed for s in campaign.expand())

    def test_explicit_seed_axis_wins_over_derivation(self):
        campaign = CampaignSpec.from_dict(mini_dict(grid={"seed": [11, 12]}))
        assert [s.spec.seed for s in campaign.expand()] == [11, 12]

    def test_distinct_axis_keys_use_the_short_last_segment(self):
        campaign = CampaignSpec.from_dict(mini_dict(grid={
            "attack.schedule.q": [0, 2],
            "training.num_iterations": [2],
        }))
        names = [s.spec.name for s in campaign.expand()]
        assert names[0] == "mini/q=0,num_iterations=2"

    def test_axis_key_collision_falls_back_to_full_paths(self):
        campaign = CampaignSpec.from_dict(mini_dict(grid={
            "attack.params": [{"label": "default", "value": {}}],
            "cluster.params": [{"label": "mols5x3",
                                "value": {"load": 5, "replication": 3}}],
        }))
        names = [s.spec.name for s in campaign.expand()]
        assert names == ["mini/attack.params=default,cluster.params=mols5x3"]

    def test_override_into_non_dict_raises(self):
        campaign = CampaignSpec.from_dict(
            mini_dict(grid={"seed.extra": [1]})
        )
        with pytest.raises(ConfigurationError, match="non-dict"):
            campaign.expand()

    def test_invalid_cell_error_names_the_cell(self):
        campaign = CampaignSpec.from_dict(
            mini_dict(grid={"pipeline.kind": ["byzshield", "warpdrive"]})
        )
        with pytest.raises(ConfigurationError, match="kind=warpdrive"):
            campaign.expand()

    def test_mistyped_cell_value_is_wrapped_like_an_invalid_one(self):
        """``int("x")`` used to slip past the "does not form a valid scenario"
        wrapper as a bare ValueError."""
        campaign = CampaignSpec.from_dict(mini_dict(grid={"seed": [1, "x"]}))
        with pytest.raises(ConfigurationError, match="seed=x.*scenario.seed must be an integer"):
            campaign.expand()


    def test_a_cell_that_cannot_run_is_refused_before_any_cell_runs(self, monkeypatch):
        """DRACO at r = 3 takes q = 1 but not q = 2: expansion runs each cell's
        ``ScenarioRunner.check`` and refuses the q = 2 cell by name, so the
        q = 1 cell never runs either."""
        ran = []
        monkeypatch.setattr(ScenarioRunner, "run", lambda self: ran.append(self.spec.name))
        campaign = CampaignSpec.from_dict({
            "name": "c",
            "base_scenario": "draco-constant-q1",
            "grid": {"attack.schedule.q": [1, 2]},
        })
        message = (
            r"^campaign 'c': grid cell 'c/q=2' does not form a valid scenario: "
            r"scenario\.attack: DRACO requires r >= 2q\+1, but r=3 and the schedule reaches q=2$"
        )
        with pytest.raises(ConfigurationError, match=message):
            CampaignExecutor(campaign).run()
        assert ran == []


class TestRunSpecs:
    def test_rejects_negative_processes(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            run_specs([], processes=-1)

    def test_rejects_override_length_mismatch(self):
        spec = get_scenario("mols-clean")
        with pytest.raises(ConfigurationError, match="override"):
            run_specs([spec], overrides=[{}, {}])

    def test_record_round_trips_through_json(self):
        record = execute_spec(get_scenario("mols-clean"), {"why": "test"})
        again = ScenarioRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert again == record
        assert again.overrides == {"why": "test"}

    def test_record_from_dict_missing_key_raises(self):
        with pytest.raises(ReproError, match="missing key"):
            ScenarioRecord.from_dict({"scenario": "x"})

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param({"spec": 3}, "record.spec must be a mapping", id="spec-int"),
            pytest.param({"trace": [1]}, "record.trace must be a mapping", id="trace-list"),
            pytest.param({"summary": "ab"}, "record.summary must be a mapping", id="summary-string"),
            pytest.param({"scenario": None}, "record.scenario must be a string", id="scenario-null"),
            pytest.param(None, "record must be a mapping, got list", id="root-list"),
        ],
    )
    def test_malformed_record_ends_in_a_named_error(self, edit, message):
        """The first three and the list root escaped as bare TypeError /
        ValueError before the field table."""
        good = execute_spec(get_scenario("mols-clean")).to_dict()
        with pytest.raises(ReproError, match="^" + message):
            ScenarioRecord.from_dict([good] if edit is None else {**good, **edit})


class TestExecutorAndStore:
    def test_parallel_matches_serial_bit_for_bit(self):
        """The acceptance property at test scale: a 4-scenario mini-campaign
        run on 2 worker processes produces records identical to the serial
        run — including every per-round trace digest."""
        specs = [s.spec for s in CampaignSpec.from_dict(mini_dict()).expand()]
        serial = run_specs(specs, processes=0)
        parallel = run_specs(specs, processes=2)
        assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]

    def test_run_populates_the_store(self, tmp_path):
        campaign = CampaignSpec.from_dict(mini_dict())
        store = ResultStore(campaign, root=tmp_path)
        result = CampaignExecutor(campaign, store=store).run()
        assert result.ran == 4 and result.skipped == 0
        assert store.directory == tmp_path / campaign.digest()
        assert store.campaign_path.exists()
        assert store.completed_digests() == {s.spec.digest() for s in result.scenarios}

    def test_rerun_skips_completed_scenarios(self, tmp_path):
        campaign = CampaignSpec.from_dict(mini_dict())
        store = ResultStore(campaign, root=tmp_path)
        first = CampaignExecutor(campaign, store=store).run()
        second = CampaignExecutor(campaign, store=store).run()
        assert second.ran == 0 and second.skipped == 4
        assert [r.to_dict() for r in second.records] == [
            r.to_dict() for r in first.records
        ]

    def test_interrupted_run_keeps_finished_scenarios(self, tmp_path):
        """Records persist the moment each scenario completes: an interrupt
        mid-campaign loses only in-flight work, and the re-run resumes."""
        campaign = CampaignSpec.from_dict(mini_dict())
        store = ResultStore(campaign, root=tmp_path)
        original_save = store.save
        saves = 0

        def interrupting_save(record):
            nonlocal saves
            path = original_save(record)
            saves += 1
            if saves == 2:
                raise KeyboardInterrupt
            return path

        store.save = interrupting_save
        with pytest.raises(KeyboardInterrupt):
            CampaignExecutor(campaign, store=store).run()
        store.save = original_save
        assert len(store.completed_digests()) == 2
        resumed = CampaignExecutor(campaign, store=store).run()
        assert resumed.ran == 2 and resumed.skipped == 2

    def test_partial_store_runs_only_the_missing_cells(self, tmp_path):
        campaign = CampaignSpec.from_dict(mini_dict())
        store = ResultStore(campaign, root=tmp_path)
        store.initialize()
        scenarios = campaign.expand()
        store.save(execute_spec(scenarios[0].spec, scenarios[0].overrides))
        result = CampaignExecutor(campaign, store=store).run()
        assert result.ran == 3 and result.skipped == 1
        assert all(r is not None for r in result.records)

    def test_status_reports_completed_and_pending(self, tmp_path):
        campaign = CampaignSpec.from_dict(mini_dict())
        store = ResultStore(campaign, root=tmp_path)
        executor = CampaignExecutor(campaign, store=store)
        before = executor.status()
        assert before.total == 4 and not before.completed
        executor.run()
        after = executor.status()
        assert not after.pending and len(after.completed) == 4

    def test_a_record_of_another_trace_format_is_not_completed(self, tmp_path):
        """A resumed campaign re-runs a cell stored in an older trace format
        instead of mixing formats in one result set."""
        campaign = CampaignSpec.from_dict(mini_dict())
        store = ResultStore(campaign, root=tmp_path)
        executor = CampaignExecutor(campaign, store=store)
        first = executor.run()
        digest = first.records[0].spec_digest
        stale = store.record_path(digest)
        document = json.loads(stale.read_text())
        del document["trace"]["format_version"]  # what a v1 trace looks like
        stale.write_text(json.dumps(document))
        assert store.load(digest) is None
        assert digest not in store.completed_digests()
        assert len(executor.status().pending) == 1
        resumed = CampaignExecutor(campaign, store=store).run()
        assert resumed.ran == 1 and resumed.skipped == 3
        assert [r.to_dict() for r in resumed.records] == [r.to_dict() for r in first.records]
        assert store.load(digest) == first.records[0]

    def test_a_float32_record_stored_as_v2_is_not_completed(self, tmp_path):
        """A float32 cell's trace is format 3 and a float64 cell's format 2:
        a float32 record stored before native-width digests is re-run, and
        neither dtype's record is read under the other's format."""
        campaign = CampaignSpec.from_dict(
            mini_dict(grid={"dtype": ["float32", "float64"]})
        )
        store = ResultStore(campaign, root=tmp_path)
        first = CampaignExecutor(campaign, store=store).run()
        # a spec dict leaves its default dtype out
        formats = {
            r.spec.get("dtype", "float64"): r.trace["format_version"] for r in first.records
        }
        assert formats == {"float32": 3, "float64": 2}
        for record in first.records:
            path = store.record_path(record.spec_digest)
            document = json.loads(path.read_text())
            document["trace"]["format_version"] = 5 - document["trace"]["format_version"]
            path.write_text(json.dumps(document))
            assert store.load(record.spec_digest) is None
        resumed = CampaignExecutor(campaign, store=store).run()
        assert resumed.ran == 2 and resumed.skipped == 0
        assert [r.to_dict() for r in resumed.records] == [r.to_dict() for r in first.records]

    def test_store_rejects_a_foreign_campaign_json(self, tmp_path):
        campaign = CampaignSpec.from_dict(mini_dict())
        store = ResultStore(campaign, root=tmp_path)
        store.directory.mkdir(parents=True)
        store.campaign_path.write_text(json.dumps({"name": "impostor"}))
        with pytest.raises(ReproError, match="different campaign"):
            store.initialize()

    def test_store_rejects_a_record_with_mismatched_digest(self, tmp_path):
        campaign = CampaignSpec.from_dict(mini_dict())
        store = ResultStore(campaign, root=tmp_path)
        record = execute_spec(get_scenario("mols-clean"))
        saved = store.save(record)
        moved = saved.with_name("0000000000000000.json")
        saved.rename(moved)
        with pytest.raises(ReproError, match="corrupt"):
            store.load("0000000000000000")

    def test_store_names_the_file_of_a_malformed_record(self, tmp_path):
        store = ResultStore(CampaignSpec.from_dict(mini_dict()), root=tmp_path)
        saved = store.save(execute_spec(get_scenario("mols-clean")))
        document = json.loads(saved.read_text())
        saved.write_text(json.dumps({**document, "spec": 3}))
        with pytest.raises(ReproError, match=f"{saved.name} is not a scenario record: record.spec"):
            store.load(saved.stem)
        saved.write_bytes(b"\xff\xfe")
        with pytest.raises(ReproError, match=f"cannot read .*{saved.name}"):
            store.load(saved.stem)


class TestReport:
    def test_find_q_axis(self):
        campaign = CampaignSpec.from_dict(mini_dict())
        assert find_q_axis(campaign) == "attack.schedule.q"
        no_q = CampaignSpec.from_dict(mini_dict(grid={"pipeline.aggregator": ["median"]}))
        assert find_q_axis(no_q) is None

    def test_accuracy_vs_q_pivot_shape(self, tmp_path):
        campaign = CampaignSpec.from_dict(mini_dict())
        result = CampaignExecutor(
            campaign, store=ResultStore(campaign, root=tmp_path)
        ).run()
        rows = accuracy_vs_q_rows(campaign, result.scenarios, result.records)
        # Rows follow the axis's declared value order, not lexicographic.
        assert [row["aggregator"] for row in rows] == ["median", "mean"]
        for row in rows:
            assert set(row) == {"aggregator", "q=0", "q=2"}
            assert all(isinstance(row[c], float) for c in ("q=0", "q=2"))

    def test_report_lists_realised_distortion_after_the_prediction(self, tmp_path):
        campaign = CampaignSpec.from_dict(mini_dict())
        store = ResultStore(campaign, root=tmp_path)
        result = CampaignExecutor(campaign, store=store).run()
        for row, record in zip(result.summary_rows(), result.records):
            columns = list(row)
            at = columns.index("mean_predicted_distortion")
            assert columns[at + 1] == "mean_realised_distortion"
            assert row["mean_realised_distortion"] == record.summary["mean_realised_distortion"]
        report = campaign_report(result)
        assert "mean_predicted_distortion  mean_realised_distortion" in report

    def test_a_record_stored_without_realised_distortion_still_renders(self, tmp_path):
        campaign = CampaignSpec.from_dict(mini_dict())
        store = ResultStore(campaign, root=tmp_path)
        first = CampaignExecutor(campaign, store=store).run()
        digest = first.records[0].spec_digest
        path = store.record_path(digest)
        document = json.loads(path.read_text())
        del document["summary"]["mean_realised_distortion"]  # as stored before the column
        path.write_text(json.dumps(document))
        records = [store.load(s.spec.digest()) for s in first.scenarios]
        assert "mean_realised_distortion" not in records[0].summary
        result = CampaignRunResult(campaign=campaign, scenarios=first.scenarios, records=records)
        rows = result.summary_rows()
        assert rows[0]["mean_realised_distortion"] == ""
        assert list(rows[0]) == list(rows[1])
        assert "mean_realised_distortion" in campaign_report(result)

    def test_report_renders_missing_records_note(self):
        campaign = CampaignSpec.from_dict(mini_dict())
        executor = CampaignExecutor(campaign)
        result = CampaignRunResult(
            campaign=campaign,
            scenarios=executor.scenarios,
            records=[None] * len(executor.scenarios),
        )
        text = campaign_report(result)
        assert "no stored record" in text
