"""Smoke and unit tests of the end-to-end benchmark.

Auto-marked ``bench`` by ``benchmarks/conftest.py`` (deselected in tier-1, run
by CI's ``pytest benchmarks -m bench`` job).  The smoke test drives
``run.py --quick`` in a subprocess, as the benchmark driver does; the unit
tests pin the span self-time arithmetic and ``compare.py``'s bound logic on
synthetic inputs.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import compare
import pytest
from spans import Tracer, layer_totals, self_times

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


# -- span arithmetic -----------------------------------------------------------
def test_self_time_is_duration_minus_direct_children():
    # round [0, 100] > vote [10, 60] > block [20, 30]; round > step [70, 90]
    spans = [
        ["round", 0, 100, -1, 0],
        ["vote", 10, 60, 0, 0],
        ["block", 20, 30, 1, 0],
        ["step", 70, 90, 0, 0],
        ["round", 100, 130, -1, 1],
    ]
    assert self_times(spans) == [30, 40, 10, 20, 30]
    totals = layer_totals(spans)
    assert totals["round"] == {0: [30, 1], 1: [30, 1]}
    assert totals["vote"] == {0: [40, 1]}
    # Self times of one op add up to the top-level span: nothing is lost.
    assert sum(cell[0][0] for cell in totals.values() if 0 in cell) == 100


def test_tracer_links_parents_numbers_ops_and_restores():
    class Layer:
        def inner(self, x):
            return x + 1

        def outer(self, x):
            return self.inner(x) * 2

    tracer = Tracer()
    seen = []
    live = Layer()
    tracer.wrap(live, "inner", "inner", lambda t, args, result: seen.append((args, result)))
    tracer.patch(Layer, "outer", "outer")
    assert live.outer(1) == 4 and live.outer(2) == 6
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [
        ("outer", -1, 0), ("inner", 0, 0), ("outer", -1, 1), ("inner", 2, 1),
    ]
    assert all(s[1] <= s[2] for s in tracer.spans)
    assert seen == [((1,), 2), ((2,), 3)] and tracer.num_ops == 2
    tracer.restore()
    before = len(tracer.spans)
    assert Layer().outer(1) == 4 and len(tracer.spans) == before

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.shim(boom, "boom")()
    assert tracer.spans[-1][2] >= tracer.spans[-1][1] > 0  # closed despite the raise
    assert tracer.shim(lambda: 1, "after")() == 1 and tracer.spans[-1][3] == -1


# -- compare.py ------------------------------------------------------------------
@pytest.mark.parametrize(
    "a, b, better, bound, verdict",
    [
        ([100, 101, 99, 100], [103, 104, 102, 103], "lower", 0.08, "unchanged"),
        ([100, 101, 99, 100], [112, 113, 111, 112], "lower", 0.08, "regressed"),
        ([100, 101, 99, 100], [88, 89, 87, 88], "lower", 0.08, "improved"),
        ([10, 10.1, 9.9, 10], [8.7, 8.8, 8.6, 8.7], "higher", 0.10, "regressed"),
        ([10, 10.1, 9.9, 10], [11.5, 11.6, 11.4, 11.5], "higher", 0.10, "improved"),
        # spread wider than the bound: no verdict ...
        ([100, 120, 80, 100], [103, 125, 82, 104], "lower", 0.08, "unresolved"),
        # ... unless every run of one side beats every run of the other
        ([100, 120, 80, 100], [60, 70, 50, 65], "lower", 0.08, "improved"),
        ([100, 120, 80, 100], [160, 170, 150, 165], "lower", 0.08, "regressed"),
        ([5.0], [5.2], "lower", 0.08, "unchanged"),  # single runs: no spread to judge
    ],
)
def test_classify_applies_bound_direction_and_spread(a, b, better, bound, verdict):
    assert compare.classify(a, b, better, bound)["verdict"] == verdict


def test_compare_rows_follow_benchmark_json_and_flag_failed_ops(tmp_path, capsys):
    def result(scale, failed):
        return {"runs": [
            {
                "workload": w["name"], "trace": 0, "failed": failed,
                "metrics": {
                    m["name"]: {"value": (1.0 + 0.001 * i) * (scale if m["name"] == "round_ms_p50" else 1.0)}
                    for m in BENCHMARK["end_to_end"]
                },
            }
            for w in BENCHMARK["workloads"] for i in range(3)
        ] + [{"workload": BENCHMARK["workloads"][0]["name"], "trace": 1, "failed": 0, "metrics": {}}]}

    rows = compare.compare(result(1.0, 0), result(1.0, 0), BENCHMARK)
    assert len(rows) == len(BENCHMARK["workloads"]) * (len(BENCHMARK["end_to_end"]) + 1)
    assert {row["verdict"] for row in rows} == {"unchanged"}

    paths = []
    for name, payload in (("a", result(1.0, 0)), ("b", result(1.5, 1))):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(payload))
    assert compare.main([str(paths[0]), str(paths[0])]) == 0
    assert compare.main([str(p) for p in paths]) == 1
    regressed = [line for line in capsys.readouterr().out.splitlines() if "regressed" in line]
    assert len(regressed) == 2 * len(BENCHMARK["workloads"])  # round_ms_p50 + failed_ops


# -- the benchmark itself ----------------------------------------------------------
def test_benchmark_json_declares_the_layers_and_workloads_the_code_has():
    import run
    from layers import COUNTS, LAYERS, SETUP_STAGES

    declared = set(run.PER_LAYER)
    assert {f"{layer}.{suffix}" for layer in LAYERS for suffix in ("self_ms", "share", "calls")} <= declared
    assert set(COUNTS) | {f"setup.{stage}_ms" for stage in SETUP_STAGES} <= declared
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == run.WORKLOAD_NAMES
    assert BENCHMARK["command"][-1] == "benchmarks/e2e/run.py"


def test_quick_run_prints_every_metric_and_passes_every_check(tmp_path):
    out = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in BENCHMARK[section]:
            assert entry["name"] in done.stdout, entry["name"]
    assert "FAILED" not in done.stdout

    result = json.loads(out.read_text())
    assert {"git_commit", "cpu_model", "nproc", "python", "numpy", "blas", "threads"} <= set(
        result["environment"]
    )
    runs = result["runs"]
    assert len(runs) == 2 * len(BENCHMARK["workloads"])
    for run in runs:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        assert all(run["checks"].values()), run["checks"]
        assert len(run["spec_digest"]) == 16 and run["detail"]["final_params_digest"]
        if run["trace"]:
            assert run["metrics"]["trace.coverage"]["value"] >= 0.9
            dump = out.with_name(f"result.spans-{run['workload']}.json")
            spans = json.loads(dump.read_text())
            assert spans["fields"] == ["name", "start_ns", "end_ns", "parent", "op"]
            assert len(spans["spans"]) > run["attempted"]
