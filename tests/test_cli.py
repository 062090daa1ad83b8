"""Tests for the command-line interface."""

import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro.aggregation.majority as majority
from repro.cli import build_parser, main
from repro.scenarios import get_scenario
from repro.scenarios.runner import ScenarioRunner


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table3" in out
    assert "fig12" in out


def test_table_command(capsys):
    assert main(["table", "table3"]) == 0
    out = capsys.readouterr().out
    assert "epsilon_byzshield" in out
    assert "0.040" in out  # q=2 row of Table 3


def test_table_command_with_csv(tmp_path, capsys):
    csv_path = tmp_path / "table3.csv"
    assert main(["--csv", str(csv_path), "table", "table3"]) == 0
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("q,c_max")


def test_figure12_command(capsys):
    assert main(["figure", "fig12"]) == 0
    out = capsys.readouterr().out
    assert "ByzShield" in out
    assert "communication" in out


def test_figure_accuracy_command_tiny(capsys, tmp_path):
    csv_path = tmp_path / "fig9.csv"
    assert main(["--csv", str(csv_path), "figure", "fig9", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "ByzShield, q=2" in out
    # Each curve is printed with the digest of the spec that re-runs it alone.
    from repro.experiments.accuracy import figure_scenarios

    # Curve labels hold commas ("Median, q=2"): the CSV quotes them.
    rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
    specs = figure_scenarios("fig9", scale="tiny")
    assert [row["curve"] for row in rows] == [spec.name for spec in specs]
    for spec, row in zip(specs, rows, strict=True):
        assert row["spec_digest"] == spec.digest()
        assert spec.digest() in out


def test_bounds_command(capsys):
    assert main(["bounds"]) == 0
    out = capsys.readouterr().out
    assert "Claim 2" in out
    assert "gamma" in out


def test_distortion_command_mols(capsys):
    assert main(["distortion", "--scheme", "mols", "--load", "5", "--replication", "3", "--q", "2", "3"]) == 0
    out = capsys.readouterr().out
    assert "mols(l=5,r=3)" in out


def test_distortion_command_over_the_search_limit(capsys):
    """C(55, 20) sets is past the search's limit: one error line, exit 1."""
    argv = ["distortion", "--scheme", "mols", "--load", "11", "--replication", "5", "--q", "20"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
    assert "C(55, 20)" in captured.err


def test_distortion_command_frc(capsys):
    assert main(
        ["distortion", "--scheme", "frc", "--num-workers", "15", "--replication", "3", "--q", "4"]
    ) == 0
    out = capsys.readouterr().out
    assert "frc" in out


def test_distortion_command_baseline_and_random(capsys):
    assert main(["distortion", "--scheme", "baseline", "--num-workers", "10", "--q", "2"]) == 0
    assert main(
        [
            "distortion",
            "--scheme",
            "random",
            "--num-workers",
            "15",
            "--num-files",
            "25",
            "--replication",
            "3",
            "--q",
            "3",
        ]
    ) == 0


def test_distortion_command_ramanujan(capsys):
    assert main(["distortion", "--scheme", "ramanujan", "--m", "5", "--s", "5", "--q", "3"]) == 0
    out = capsys.readouterr().out
    assert "ramanujan" in out


def test_error_exit_code(capsys):
    # FRC with K not divisible by r is a configuration error -> exit code 1.
    assert main(
        ["distortion", "--scheme", "frc", "--num-workers", "16", "--replication", "3", "--q", "2"]
    ) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["list"], ["table", "table3"]])
def test_a_reader_that_stops_early_is_not_an_error(command):
    """``repro list | head``: a pipe that closes before the output is written
    ends the command with status 0 and nothing on stderr.  Without
    ``PYTHONUNBUFFERED`` stdout holds the whole table until a flush, which
    ``main`` makes itself rather than leave to the interpreter's shutdown
    (a warning and status 120)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *command],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    process.stdout.close()
    stderr = process.stderr.read()
    assert process.wait() == 0
    assert stderr == b""


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_unknown_choice_rejected(capsys):
    # `lint` is no subcommand: its invariants are tests/test_source_invariants.py
    for argv, choice in ((["table", "table99"], "table99"), (["lint", "--check"], "lint")):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"invalid choice: '{choice}'" in capsys.readouterr().err
    assert "lint" not in build_parser().format_help()


@pytest.mark.parametrize("command", [["table", "table3"], ["distortion", "--q", "2"]])
def test_method_option_is_gone(command):
    with pytest.raises(SystemExit):
        build_parser().parse_args([*command, "--method", "local_search"])


def test_scenario_list_command(capsys):
    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    assert "mols-alie-all-faults" in out
    assert "repro scenario run" in out


def test_scenario_run_catalog_name(capsys):
    assert main(["scenario", "run", "mols-clean"]) == 0
    out = capsys.readouterr().out
    assert "mols-clean" in out
    assert "final_params_digest" in out


def test_scenario_run_spec_file(tmp_path, capsys):
    example = pathlib.Path(__file__).parent.parent / "examples" / "scenario_mols_alie_faults.json"
    trace_out = tmp_path / "trace.json"
    assert main(["scenario", "run", str(example), "--trace-out", str(trace_out)]) == 0
    out = capsys.readouterr().out
    assert "example-mols-alie-faults" in out
    assert trace_out.exists()


def test_scenario_run_requires_target(capsys):
    assert main(["scenario", "run"]) == 1
    assert "requires" in capsys.readouterr().err


def test_scenario_run_unknown_name_fails_cleanly(capsys):
    assert main(["scenario", "run", "no-such-scenario"]) == 1
    assert "unknown scenario" in capsys.readouterr().err


def test_a_vote_that_breaks_the_guarantee_stops_the_run_in_one_line(monkeypatch, capsys):
    """A vote decided by r // 2 matching copies (one short of r') lets an
    unpredicted file through: the run names the round and the file."""
    monkeypatch.setattr(majority, "majority_threshold", lambda r: r // 2)
    assert main(["scenario", "run", "detox-async-deadline-quorum"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == (
        "error: scenario 'detox-async-deadline-quorum' round 0: files [1] realised outside "
        "the graph's prediction with no corrupted copy"
    )


@pytest.mark.parametrize(
    "edit",
    [
        {"seed": "abc"},
        {"model": {"hidden": 5}},
        {"cluster": None},
        {"cluster": {"params": [1, 2]}},
        {"faults": [1]},
        {"runtime": {"deadline": "soon"}},
        {"pipeline": {"block_size": "wide"}},
        {"topology": {"groups": "two"}},
        {"training": {"batch_size": [1]}},
        None,
    ],
    ids=["seed", "hidden", "cluster", "params", "faults", "deadline", "block-size", "groups",
         "batch-size", "null-root"],
)
def test_scenario_run_malformed_spec_file_is_a_one_line_error(tmp_path, capsys, edit):
    """``main`` catches ReproError only: each of these used to be a traceback."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(None if edit is None else {"name": "bad", **edit}))
    assert main(["scenario", "run", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: scenario") and "Traceback" not in line


@pytest.mark.parametrize(
    "section, edit, expected",
    [
        ("pipeline", {"vote_tolerance": 0.0}, "['scenario.pipeline.vote_tolerance']"),
        ("pipeline", {"aggregator": "auror"}, "unknown aggregator 'auror'; available: ['bulyan',"),
        ("compression", {"name": "randomk"}, "unknown compressor 'randomk'; available: ['sign', 'topk']"),
        ("training", {"weight_decay": 0.0}, "['scenario.training.weight_decay']"),
        ("data", {"partition": {"min_per_shard": 1}}, "['scenario.data.partition.min_per_shard']"),
        (
            "attack",
            {"name": "alie", "params": {"negative_direction": True}},
            "scenario.attack.params: bad parameters for attack 'alie': ALIEAttack.__init__() "
            "got an unexpected keyword argument 'negative_direction'",
        ),
    ],
    ids=["vote-tolerance", "auror", "randomk", "weight-decay", "min-per-shard",
         "negative-direction"],
)
def test_scenario_run_removed_names_fail_loudly(tmp_path, capsys, section, edit, expected):
    """A spec written for a field, registry entry or component parameter that
    no longer exists exits 1 with one line naming the dotted path or the
    names that do."""
    data = get_scenario("mols-clean").to_dict()
    data[section] = {**data.get(section, {}), **edit}
    path = tmp_path / "removed.json"
    path.write_text(json.dumps(data))
    assert main(["scenario", "run", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and expected in line


def test_scenario_run_inapplicable_aggregator_is_a_one_line_error(tmp_path, capsys):
    """Bulyan(6) needs 27 votes and f = 25: refused when the pipeline is built,
    not by an AggregationError out of round 0."""
    data = get_scenario("ramanujan-bulyan-minmax-rotating").to_dict()
    data["pipeline"]["aggregator_params"] = {"num_byzantine": 6}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["scenario", "run", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: scenario.pipeline.aggregator_params: 'bulyan'")
    assert "27 votes" in line and "reduces 25" in line


MOLS_CLUSTER = {"scheme": "mols", "params": {"load": 5, "replication": 3}}


def _draco_against_q2(data):
    data["attack"]["schedule"]["q"] = 2


@pytest.mark.parametrize(
    "name, edit, expected",
    [
        (
            "draco-constant-q1",
            _draco_against_q2,
            "scenario.attack: DRACO requires r >= 2q+1, but r=3 and the schedule reaches q=2",
        ),
        (
            "draco-constant-q1",
            lambda data: data.update(cluster=MOLS_CLUSTER),
            "scenario.cluster: the 'draco' pipeline needs an FRC assignment (one file "
            "per worker), got load=5",
        ),
        (
            "detox-mom-alie",
            lambda data: data.update(cluster=MOLS_CLUSTER),
            "scenario.cluster: the 'detox' pipeline needs an FRC assignment (one file "
            "per worker), got load=5",
        ),
        (
            "vanilla-median-alie",
            lambda data: data.update(cluster=MOLS_CLUSTER),
            "scenario.cluster: the 'vanilla' pipeline needs the baseline assignment "
            "with l = r = 1, got l=5, r=3",
        ),
        (
            "vanilla-median-alie",
            lambda data: data["pipeline"].update(block_size=8),
            "scenario.pipeline.block_size: the vanilla pipeline (r = 1) has no vote "
            "kernel to stream",
        ),
        (
            "vanilla-fang-krum",
            lambda data: data["pipeline"]["aggregator_params"].update(block_size=64),
            "scenario.pipeline.aggregator_params: bad parameters for aggregator 'krum': "
            "KrumAggregator.__init__() got an unexpected keyword argument 'block_size'",
        ),
        (
            "mols-clean",
            lambda data: data["cluster"]["params"].update(replication=4),
            "scenario.cluster: majority voting requires an odd replication factor "
            "(or r = 1), got r=4",
        ),
        (
            "mols-clean",
            lambda data: data["cluster"]["params"].update(load=4),
            "scenario.cluster.params: load l must be prime, got 4",
        ),
        (
            "mols-async-quorum",
            lambda data: data["runtime"].update(quorum=4),
            "scenario.runtime.quorum: runtime quorum 4 exceeds the assignment's "
            "replication r=3: no file could close",
        ),
        (
            "ramanujan-hier-async-group-quorum",
            lambda data: data.pop("topology"),
            "scenario.runtime.quorum: runtime quorum 2 is below the r'=3 matching "
            "copies the vote needs: no file could be decided",
        ),
        (
            "ramanujan-hier-async-group-quorum",
            lambda data: data["topology"].update(groups=26),
            "scenario.topology.groups: runtime groups 26 exceed the assignment's "
            "K=25 workers",
        ),
        (
            "mols-clean",
            lambda data: data["training"].update(batch_size=76),
            "scenario.training.batch_size: batch_size=76 must be divisible by the "
            "number of files f=25",
        ),
        (
            "mols-clean",
            lambda data: data["data"].update(num_train=50),
            "scenario.training.batch_size: batch_size=75 exceeds the 50 training samples",
        ),
        (
            "mols-alie-dirichlet03",
            lambda data: data["data"].update(num_train=20),
            "scenario.data.partition: 20 training samples cannot give each of f=25 "
            "shards a sample",
        ),
        (
            "mols-alie-omniscient",
            lambda data: data["attack"]["schedule"].update(q=16),
            "scenario.attack.schedule: the schedule reaches q=16, above the K=15 workers",
        ),
        (
            "mols-alie-omniscient",
            lambda data: data["attack"]["schedule"].update(kind="ramping"),
            "scenario.attack.schedule: ramping schedule requires q_end",
        ),
        (
            "ramanujan-alie-omniscient",
            lambda data: data.update(topology={"groups": 5}),
            "scenario.topology requires an event-driven runtime (set runtime.deadline "
            "and/or runtime.quorum)",
        ),
        (
            "vanilla-async-deadline-partial",
            lambda data: data.update(topology={"groups": 2}),
            "scenario.topology requires a voting pipeline (byzshield, detox or "
            "draco); the vanilla pipeline has one copy per file",
        ),
        # A section's own check names the section's path too.
        (
            "mols-clean",
            lambda data: data["pipeline"].update(kind="foo"),
            "scenario.pipeline: unknown pipeline kind 'foo'; expected byzshield, "
            "detox, draco or vanilla",
        ),
        (
            "mols-async-quorum",
            lambda data: data["runtime"].update(quorum=0),
            "scenario.runtime: runtime quorum must be >= 1, got 0",
        ),
        (
            "ramanujan-hier-async-group-quorum",
            lambda data: data["topology"].update(groups=0),
            "scenario.topology: topology groups must be >= 1, got 0",
        ),
        (
            "mols-clean",
            lambda data: data["training"].update(batch_size=0),
            "scenario.training: batch_size must be positive, got 0",
        ),
    ],
    ids=["draco-bound", "draco-on-mols", "detox-on-mols", "vanilla-on-mols",
         "vanilla-block-size", "aggregator-block-size", "even-r", "load-4",
         "quorum-above-r", "quorum-below-r-prime", "groups-above-K", "batch-indivisible",
         "batch-above-train", "partition-above-train", "q-above-K", "ramping-without-q-end",
         "topology-sync",
         "topology-vanilla", "pipeline-kind", "runtime-quorum-0", "topology-groups-0",
         "training-batch-0"],
)
def test_scenario_run_inapplicable_scheme_is_a_one_line_error(
    tmp_path, capsys, monkeypatch, name, edit, expected
):
    """A spec that cannot run (DRACO with r = 3 against q = 2, DETOX or DRACO
    off FRC, the baseline off l = r = 1 or with a vote block, a robust rule
    given a block width, an even r, a scheme parameter it refuses, a quorum
    or topology the cluster cannot close, a batch that does not split into f
    files or exceeds the training set, more shards than training samples,
    q > K, a ramp without its end) is refused by
    ``ScenarioRunner.check``, naming its spec path, before any data is
    built: not by an error out of round 0.  A value a section's own check
    refuses (an unknown pipeline kind, a quorum or group count below 1, a
    batch size below 1) is refused as the spec loads, naming that section."""
    def no_data(self):
        raise AssertionError("the data was built before the spec was refused")

    monkeypatch.setattr(ScenarioRunner, "_build_datasets", no_data)
    data = get_scenario(name).to_dict()
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["scenario", "run", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == f"error: {expected}"


def test_scenario_record_and_replay_round_trip(tmp_path, capsys):
    golden_dir = tmp_path / "golden"
    assert (
        main(["scenario", "record", "--name", "mols-clean", "--golden-dir", str(golden_dir)])
        == 0
    )
    assert (golden_dir / "mols-clean.json").exists()
    assert (
        main(["scenario", "replay", "--name", "mols-clean", "--golden-dir", str(golden_dir)])
        == 0
    )
    out = capsys.readouterr().out
    assert "ok mols-clean" in out


def test_scenario_matrix_ablation(capsys, tmp_path):
    csv_path = tmp_path / "matrix.csv"
    assert main(["--csv", str(csv_path), "ablation", "scenarios"]) == 0
    out = capsys.readouterr().out
    assert "Fault-injection scenario matrix" in out
    assert "mols-alie-all-faults" in out
    assert csv_path.read_text().startswith("scenario,")


def test_scenario_run_catalog_name_wins_over_cwd_entry(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mols-clean").mkdir()  # would shadow the catalog if paths won
    assert main(["scenario", "run", "mols-clean"]) == 0
    assert "final_params_digest" in capsys.readouterr().out


def test_scenario_record_accepts_positional_name(tmp_path, capsys):
    golden_dir = tmp_path / "g"
    assert main(["scenario", "record", "mols-clean", "--golden-dir", str(golden_dir)]) == 0
    assert sorted(p.name for p in golden_dir.iterdir()) == ["mols-clean.json", "numpy-dispatch.txt"]
