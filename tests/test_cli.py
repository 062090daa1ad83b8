"""Tests for the command-line interface."""

import csv
import io
import json
import pathlib

import pytest

from repro.cli import build_parser, main
from repro.scenarios import get_scenario


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


def test_table_command_with_method_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "table3.csv"
    assert main(["--csv", str(csv_path), "table", "table3", "--method", "local_search"]) == 0
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


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_unknown_choice_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["table", "table99"])


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


@pytest.mark.parametrize(
    "edit",
    [
        {"seed": "abc"},
        {"model": {"hidden": 5}},
        {"cluster": None},
        {"cluster": {"params": [1, 2]}},
        {"faults": [1]},
        {"runtime": {"deadline": "soon"}},
        {"pipeline": {"vote_tolerance": None}},
        {"topology": {"groups": "two"}},
        {"training": {"batch_size": [1]}},
        None,
    ],
    ids=["seed", "hidden", "cluster", "params", "faults", "deadline", "tolerance", "groups",
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
    assert [p.name for p in golden_dir.iterdir()] == ["mols-clean.json"]
