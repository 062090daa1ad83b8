"""Tests for the experiment generators (tables, figures, bounds, ablations, report)."""

import csv
import io
import json
import pathlib

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.ablations import aggregator_ablation
from repro.experiments.accuracy import (
    SCALE_PRESETS,
    available_figures,
    figure_scenarios,
    run_accuracy_figure,
)
from repro.experiments.bounds import bound_tightness_table, claim2_verification_table
from repro.experiments.paper_reference import TABLE3, TABLE4, TABLE5, TABLE6
from repro.experiments.report import format_rows, format_series, rows_to_csv
from repro.experiments.tables import (
    generate_table3,
    generate_table4,
    generate_table5,
    generate_table6,
)
from repro.experiments.timing import generate_figure12
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.trace import hex_float

FIGURE_FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "figure_histories_tiny.json"


# --------------------------------------------------------------------------- #
# Tables
# --------------------------------------------------------------------------- #
def assert_rows_match_paper(rows, table):
    """Every row's c_max, ε̂, FRC fraction and γ equal the published ones
    (the paper prints two decimals and rounds its γ at Table 6, q = 2, one
    unit off, hence the tolerances)."""
    assert [row["q"] for row in rows] == sorted(table)[: len(rows)]
    for row in rows:
        c_max, eps, _, eps_frc, gamma = table[row["q"]]
        assert row["c_max"] == c_max, row["q"]
        assert row["epsilon_byzshield"] == pytest.approx(eps, abs=0.006)
        assert row["epsilon_frc"] == pytest.approx(eps_frc, abs=0.006)
        assert row["gamma"] == pytest.approx(gamma, abs=0.02)
        assert row["c_max"] <= row["gamma"] + 1e-9


def test_generate_table3_matches_paper():
    rows = generate_table3()
    assert [row["q"] for row in rows] == list(range(2, 8))
    assert_rows_match_paper(rows, TABLE3)


def test_generate_table4_matches_paper():
    assert_rows_match_paper(generate_table4(), TABLE4)


def test_generate_table5_matches_paper_through_q8():
    """Table 5 up to C(35, 8) ≈ 23.5M sets (about a second); q = 8 is 8, which
    the local-search heuristic this search replaced reported as 7."""
    rows = generate_table5(max_q=8)
    assert [row["q"] for row in rows] == list(range(3, 9))
    assert_rows_match_paper(rows, TABLE5)


def test_generate_table5_refuses_rows_past_the_search_limit():
    with pytest.raises(ConfigurationError, match="max_q"):
        generate_table5(max_q=14)


def test_generate_table6_small_q_matches_paper():
    rows = generate_table6()
    assert [row["q"] for row in rows] == list(range(2, 11))
    assert_rows_match_paper(rows, TABLE6)


def test_paper_reference_tables_are_consistent():
    """Published ε̂ equals published c_max / f for every row of every table."""
    for table, f in ((TABLE3, 25), (TABLE4, 25), (TABLE5, 49), (TABLE6, 49)):
        for q, (c_max, eps, _, _, gamma) in table.items():
            assert eps == pytest.approx(c_max / f, abs=0.006)
            assert c_max <= gamma + 1e-9


# --------------------------------------------------------------------------- #
# Bounds
# --------------------------------------------------------------------------- #
def test_bound_tightness_table_default():
    rows = bound_tightness_table(q_values=range(2, 6))
    for row in rows:
        assert row["bound_satisfied"]
        assert row["gamma_over_f"] == pytest.approx(row["closed_form_epsilon_bound"], rel=1e-6)
        assert row["epsilon"] <= row["gamma_over_f"] + 1e-9


def test_claim2_verification_table():
    rows = claim2_verification_table()
    assert all(row["match"] for row in rows)
    assert [row["q"] for row in rows] == [0, 1, 2, 3]


# --------------------------------------------------------------------------- #
# Accuracy figures
# --------------------------------------------------------------------------- #
def test_available_figures_and_specs():
    figures = available_figures()
    for expected in ("fig2", "fig5", "fig8", "fig11"):
        assert expected in figures
    specs = figure_scenarios("fig2")
    assert len(specs) == 6
    assert "ByzShield, q=5" in [spec.name for spec in specs]
    assert {spec.cluster.scheme for spec in specs} == {"ramanujan", "frc", "baseline"}
    with pytest.raises(ConfigurationError):
        figure_scenarios("fig99")


def test_figure_specs_have_unique_labels():
    for figure_id in available_figures():
        labels = [spec.name for spec in figure_scenarios(figure_id)]
        assert len(labels) == len(set(labels)), figure_id


@pytest.mark.parametrize("scale", sorted(SCALE_PRESETS))
@pytest.mark.parametrize("figure_id", available_figures())
def test_figure_scenarios_are_valid_specs_that_round_trip(figure_id, scale):
    """Every curve is a ScenarioSpec whose JSON form (what ``repro scenario
    run`` reads) loads back to the same digest, and the runner assembles it
    (registry names and parameters; checked at the scale that builds fast)."""
    for spec in figure_scenarios(figure_id, scale=scale, seed=3):
        assert spec.seed == 3
        assert spec.attack.selection == "omniscient"
        assert spec.training.batch_size % 75 == 0
        assert ScenarioSpec.from_dict(json.loads(spec.to_json())).digest() == spec.digest()
        if scale == "tiny":
            ScenarioRunner(spec).build_trainer()


@pytest.mark.parametrize("figure_id", available_figures())
def test_figure_scenarios_tiny_histories_match_parent_fixture(figure_id):
    """The fixture's series were recorded with the pre-spec ``run_accuracy_figure``
    (its own builders, one shared dataset per figure), except the three
    "ByzShield, q=9" curves of fig6–fig8, re-recorded when the omniscient set
    became the exact search's (EXPERIMENTS.md); every float of every record
    must still be the same bits.  The digest beside each series names an
    edit to a figure's definition before it shows up as a moved accuracy."""
    expected = json.loads(FIGURE_FIXTURE.read_text())[figure_id]
    specs = figure_scenarios(figure_id, scale="tiny", seed=0)
    histories = run_accuracy_figure(figure_id, scale="tiny", seed=0)
    assert list(histories) == [spec.name for spec in specs] == list(expected)
    for spec in specs:
        curve = dict(expected[spec.name])
        assert spec.digest() == curve.pop("spec_digest"), spec.name
        for field, series in curve.items():
            got = [hex_float(getattr(r, field)) for r in histories[spec.name].records]
            assert got == series, (spec.name, field)


def test_no_figure_declares_an_inapplicable_defense():
    """Bulyan needs 4q+3 votes and Multi-Krum 2q+3: Figure 7 has no Bulyan
    curve at q = 9 (39 > K = 25) and Figure 8 no DETOX-Multi-Krum one."""
    for figure_id in available_figures():
        for spec in figure_scenarios(figure_id):
            if spec.pipeline.aggregator == "bulyan":
                assert spec.attack.schedule.q < 9, (figure_id, spec.name)
    assert "DETOX-Multi-Krum, q=9" not in [spec.name for spec in figure_scenarios("fig8")]


@pytest.mark.parametrize(
    "cluster, kind, aggregator, needed, rows",
    [
        ({"scheme": "baseline", "params": {"num_workers": 25}}, "vanilla", "bulyan", 39, 25),
        (
            {"scheme": "frc", "params": {"num_workers": 25, "replication": 5}},
            "detox",
            "multi_krum",
            21,
            5,
        ),
    ],
)
def test_inapplicable_defense_fails_at_build_time_with_a_name(
    cluster, kind, aggregator, needed, rows
):
    """A hand-made "Bulyan, q=9, K=25" (or Multi-Krum on DETOX's 5 group
    winners) is refused by the runner before round 0, naming the section."""
    document = json.loads(figure_scenarios("fig7", scale="tiny")[0].to_json())
    document.update(
        name=f"{aggregator}, q=9",
        cluster=cluster,
        pipeline={"kind": kind, "aggregator": aggregator, "aggregator_params": {"num_byzantine": 9}},
    )
    document["attack"]["schedule"]["q"] = 9
    with pytest.raises(ConfigurationError, match="scenario.pipeline.aggregator_params") as info:
        ScenarioRunner(ScenarioSpec.from_dict(document)).build_trainer()
    assert f"at least {needed} votes" in str(info.value)
    assert str(info.value).endswith(f"reduces {rows}")


def test_run_accuracy_figure_tiny_subset():
    histories = run_accuracy_figure(
        "fig2", scale="tiny", seed=0, run_filter=["ByzShield, q=3", "Median, q=3"]
    )
    assert set(histories) == {"ByzShield, q=3", "Median, q=3"}
    for history in histories.values():
        assert len(history) == SCALE_PRESETS["tiny"]["training"]["num_iterations"]
        assert not np.isnan(history.final_accuracy)
    # ByzShield's realized distortion is far below the baseline's q/K.
    assert (
        histories["ByzShield, q=3"].distortion_fractions.mean()
        < histories["Median, q=3"].distortion_fractions.mean()
    )


def test_run_accuracy_figure_k15_cluster():
    histories = run_accuracy_figure(
        "fig9", scale="tiny", seed=0, run_filter=["ByzShield, q=2"]
    )
    history = histories["ByzShield, q=2"]
    # MOLS (l=5, r=3) with q=2 corrupts exactly 1/25 of the files.
    assert np.allclose(history.distortion_fractions, 1 / 25)


def test_run_accuracy_figure_unknown_scale():
    with pytest.raises(ConfigurationError):
        run_accuracy_figure("fig2", scale="galactic")


@pytest.mark.parametrize("run_filter", [["ByzShield q=5"], ["Median, q=3", "ByzShield, q=4"]])
def test_run_accuracy_figure_unknown_label_is_an_error(run_filter):
    """A mistyped label used to train nothing and return ``{}``."""
    with pytest.raises(ConfigurationError, match="ByzShield, q=5") as info:
        run_accuracy_figure("fig2", scale="tiny", run_filter=run_filter)
    assert run_filter[-1] in str(info.value)


# --------------------------------------------------------------------------- #
# Aggregator ablation
# --------------------------------------------------------------------------- #
def test_aggregator_ablation_rows():
    rows = aggregator_ablation(num_byzantine=5, scale_iterations=4)
    assert [row["aggregator"] for row in rows] == [
        "median", "trimmed_mean", "multi_krum", "bulyan", "geometric_median"
    ]
    for row in rows:
        assert row["mean_distortion"] == pytest.approx(0.08)
        assert 0.0 <= row["final_accuracy"] <= 1.0


# --------------------------------------------------------------------------- #
# Timing figure
# --------------------------------------------------------------------------- #
def test_generate_figure12_shape_and_ordering():
    rows = generate_figure12(model_dim=100_000)
    schemes = [row["scheme"] for row in rows]
    assert schemes == ["Median", "ByzShield", "DETOX-MoM"]
    by_scheme = {row["scheme"]: row for row in rows}
    # ByzShield pays the largest communication and total cost (Figure 12 shape).
    assert by_scheme["ByzShield"]["communication"] > by_scheme["Median"]["communication"]
    assert by_scheme["ByzShield"]["communication"] > by_scheme["DETOX-MoM"]["communication"]
    assert by_scheme["ByzShield"]["total"] > by_scheme["Median"]["total"]
    # Redundancy schemes pay r x the baseline computation.
    assert by_scheme["ByzShield"]["computation"] == pytest.approx(
        5 * by_scheme["Median"]["computation"], rel=1e-6
    )
    assert by_scheme["DETOX-MoM"]["computation"] == pytest.approx(
        by_scheme["ByzShield"]["computation"], rel=1e-6
    )


# --------------------------------------------------------------------------- #
# Report rendering
# --------------------------------------------------------------------------- #
def test_format_rows_and_csv():
    rows = [{"q": 2, "eps": 0.04, "exact": True}, {"q": 3, "eps": 0.12, "exact": False}]
    text = format_rows(rows, title="demo")
    assert "demo" in text
    assert "0.040" in text
    assert "yes" in text and "no" in text
    csv = rows_to_csv(rows)
    assert csv.splitlines()[0] == "q,eps,exact"
    assert len(csv.splitlines()) == 3
    assert format_rows([]) == "(empty table)"
    assert rows_to_csv([]) == ""


def test_csv_quotes_labels_holding_commas_and_quotes():
    rows = [
        {"curve": 'ByzShield, median "q=3"', "final_accuracy": 0.5, "digest": None},
        {"curve": "plain", "final_accuracy": 0.25, "digest": "ab12"},
    ]
    text = rows_to_csv(rows)
    assert text.splitlines()[2] == "plain,0.25,ab12"  # unquoted as before
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert parsed == [
        {"curve": 'ByzShield, median "q=3"', "final_accuracy": "0.5", "digest": "None"},
        {"curve": "plain", "final_accuracy": "0.25", "digest": "ab12"},
    ]


def test_format_series():
    series = {
        "a": (np.array([1, 2]), np.array([0.5, 0.6])),
        "b": (np.array([2]), np.array([0.4])),
    }
    text = format_series(series, title="accuracy")
    assert "accuracy" in text
    assert "iteration" in text
    lines = text.splitlines()
    assert len(lines) == 5  # title, header, separator, two iteration rows
    assert format_series({}) == "(no series)"
