"""Guard rails for the documentation and the example scripts.

These tests keep README.md, DESIGN.md, EXPERIMENTS.md and the runnable
examples in sync with the code: the documented API calls must exist and the
example scripts must at least parse and expose a ``main`` entry point.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_readme_quickstart_snippet_runs():
    """The first README code block (distortion quickstart) works as written."""
    from repro import MOLSAssignment, distortion_comparison_table, max_distortion

    scheme = MOLSAssignment(load=5, replication=3)
    assignment = scheme.assignment
    result = max_distortion(assignment, num_byzantine=3)
    assert result.c_max == 3
    assert result.epsilon == pytest.approx(0.12)
    rows = distortion_comparison_table(assignment, range(2, 8))
    assert len(rows) == 6


def test_readme_training_snippet_runs_scaled_down():
    """The README's training code blocks work: the spec route as printed, and
    the direct ``DistributedTrainer`` construction on a caller's own objects."""
    from repro.scenarios import ScenarioSpec, run_scenario

    spec = ScenarioSpec.from_dict({
        "name": "byzshield-alie-q5",
        "cluster": {"scheme": "ramanujan", "params": {"m": 5, "s": 5}},
        "pipeline": {"kind": "byzshield", "aggregator": "median"},
        "data": {"kind": "images", "num_train": 320, "num_test": 80, "num_classes": 10},
        "training": {"batch_size": 150, "num_iterations": 3, "eval_every": 3},
        "attack": {"name": "alie", "selection": "omniscient", "schedule": {"q": 5}},
    })
    result = run_scenario(spec)
    assert result.summary()["mean_predicted_distortion"] == pytest.approx(0.08)

    from repro import (
        ALIEAttack,
        AggregationPipeline,
        DistributedTrainer,
        OmniscientSelector,
        RamanujanAssignment,
        build_mlp,
        make_synthetic_images,
    )
    from repro.data import train_test_split
    from repro.scenarios import TrainingSpec
    from repro.training import ModelGradientComputer

    data = make_synthetic_images(num_samples=400, num_classes=10, flatten=True, seed=0)
    train, test = train_test_split(data, test_fraction=0.2, seed=1)
    assignment = RamanujanAssignment(m=5, s=5).assignment
    model = build_mlp(train.flat_feature_dim, 10, hidden=(16,), seed=0)
    attack, selector = ALIEAttack(), OmniscientSelector(5)

    trainer = DistributedTrainer(
        AggregationPipeline(assignment),
        ModelGradientComputer(model),
        train,
        test,
        TrainingSpec(batch_size=150, num_iterations=3),
        seed=0,
        attack=attack,
        selector=selector,
    )
    records = [trainer.run_iteration(t) for t in range(trainer.config.num_iterations)]
    assert np.mean([r.distortion_fraction for r in records]) == pytest.approx(0.08)
    assert 0.0 <= trainer.evaluate()["accuracy"] <= 1.0


def test_top_level_exports_exist():
    """Everything listed in repro.__all__ is actually importable."""
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_documentation_files_exist_and_mention_key_sections():
    readme = (REPO_ROOT / "README.md").read_text()
    design = (REPO_ROOT / "DESIGN.md").read_text()
    experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text()
    assert "ByzShield" in readme and "pip install -e ." in readme
    assert "Experiment index" in design or "experiment index" in design.lower()
    for table in ("Table 3", "Table 4", "Table 5", "Table 6"):
        assert table in experiments
    for figure in ("Figure 5", "Figure 12"):
        assert figure in experiments
    # one section per claim as it stands; the per-change logs live in git
    # history and CHANGES.md
    assert len(experiments.splitlines()) <= 1500


@pytest.mark.parametrize(
    "script",
    sorted(p.name for p in (REPO_ROOT / "examples").glob("*.py")),
)
def test_example_scripts_parse_and_define_main(script):
    path = REPO_ROOT / "examples" / script
    tree = ast.parse(path.read_text())
    function_names = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "main" in function_names, f"{script} must define a main() entry point"
    # Every example is documented with a module docstring explaining the scenario.
    assert ast.get_docstring(tree), f"{script} must have a module docstring"


def test_examples_directory_has_at_least_three_scenarios():
    scripts = list((REPO_ROOT / "examples").glob("*.py"))
    assert len(scripts) >= 3
    assert any(p.name == "quickstart.py" for p in scripts)


def _run_tool(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args], cwd=REPO_ROOT, env=env,
        capture_output=True, text=True,
    )


def test_api_reference_is_fresh():
    """docs/API.md is generated; any drift from the code fails here (and in
    CI's docs job) until `tools/gen_api_docs.py` is re-run."""
    result = _run_tool("tools/gen_api_docs.py", "--check")
    assert result.returncode == 0, result.stderr


def test_doc_links_and_anchors_resolve():
    result = _run_tool("tools/check_doc_links.py")
    assert result.returncode == 0, result.stderr


def test_a_dead_section_citation_fails_the_link_check(tmp_path):
    cited = "EXPERIMENTS" + ".md"
    live = tmp_path / "live.py"
    live.write_text(f'# ({cited}, "Distortion\n# tables")\n')
    dead = tmp_path / "dead.py"
    dead.write_text(f'# ({cited}, "A section\n# nobody wrote")\n')
    assert _run_tool("tools/check_doc_links.py", str(live)).returncode == 0
    result = _run_tool("tools/check_doc_links.py", str(dead))
    assert result.returncode == 1
    assert "dead.py:1: citation EXPERIMENTS.md, 'A section nobody wrote'" in result.stderr


def test_benchmarks_cover_every_table_and_figure():
    """There is a benchmark file for every table and figure of the evaluation."""
    names = {p.name for p in (REPO_ROOT / "benchmarks").glob("test_bench_*.py")}
    for expected in (
        "test_bench_table3.py",
        "test_bench_table4.py",
        "test_bench_table5.py",
        "test_bench_table6.py",
        "test_bench_fig2.py",
        "test_bench_fig3.py",
        "test_bench_fig4.py",
        "test_bench_fig5.py",
        "test_bench_fig6.py",
        "test_bench_fig7.py",
        "test_bench_fig8.py",
        "test_bench_fig9_11.py",
        "test_bench_fig12.py",
        "test_bench_bounds.py",
        "test_bench_ablations.py",
    ):
        assert expected in names, expected
