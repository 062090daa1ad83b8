"""Command-line interface for regenerating the paper's experiments.

Usage (after installing the package)::

    python -m repro.cli list                         # what can be regenerated
    python -m repro.cli table table3                 # a distortion table
    python -m repro.cli figure fig2 --scale tiny     # an accuracy figure
    python -m repro.cli figure fig12                 # the timing breakdown
    python -m repro.cli bounds                       # gamma-bound tightness + Claim 2
    python -m repro.cli ablation assignment          # extra ablations
    python -m repro.cli distortion --scheme mols --load 5 --replication 3 --q 4
    python -m repro.cli scenario list                # the golden scenario matrix
    python -m repro.cli scenario run examples/scenario_mols_alie_faults.json
    python -m repro.cli scenario run mols-alie-all-faults --trace-out trace.json
    python -m repro.cli scenario record              # regenerate golden traces
    python -m repro.cli scenario replay              # verify against goldens
    python -m repro.cli campaign expand examples/campaign_accuracy_vs_q.json
    python -m repro.cli campaign run examples/campaign_accuracy_vs_q.json --processes 4
    python -m repro.cli campaign status examples/campaign_accuracy_vs_q.json
    python -m repro.cli campaign report examples/campaign_accuracy_vs_q.json

Output goes to stdout as aligned text tables; ``--csv PATH`` additionally
writes machine-readable CSV.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Callable, Sequence

from repro.assignment.registry import available_schemes, create_scheme
from repro.campaigns.executor import CampaignExecutor, CampaignRunResult
from repro.campaigns.report import campaign_report
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import DEFAULT_STORE_ROOT, ResultStore
from repro.core.distortion import distortion_comparison_table
from repro.exceptions import ReproError
from repro.experiments.ablations import (
    aggregator_ablation,
    assignment_structure_ablation,
)
from repro.experiments.accuracy import (
    SCALE_PRESETS,
    available_figures,
    figure_scenarios,
    run_accuracy_figure,
)
from repro.experiments.bounds import bound_tightness_table, claim2_verification_table
from repro.experiments.paper_reference import FIGURE_DESCRIPTIONS, TABLE_CONFIGS
from repro.experiments.report import format_rows, format_series, rows_to_csv
from repro.experiments.scenarios import scenario_matrix_table
from repro.experiments.tables import (
    generate_table3,
    generate_table4,
    generate_table5,
    generate_table6,
)
from repro.experiments.timing import generate_figure12
from repro.scenarios.catalog import get_scenario, scenario_names
from repro.scenarios.golden import golden_path, record_goldens, replay_golden
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec

__all__ = ["main", "build_parser"]

_TABLE_GENERATORS: dict[str, Callable[..., list[dict[str, float]]]] = {
    "table3": generate_table3,
    "table4": generate_table4,
    "table5": generate_table5,
    "table6": generate_table6,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Regenerate the ByzShield paper's tables and figures."
    )
    parser.add_argument(
        "--csv", type=pathlib.Path, default=None, help="also write the rows as CSV to this path"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available tables and figures")

    table_parser = subparsers.add_parser("table", help="regenerate a distortion table")
    table_parser.add_argument(
        "name",
        choices=sorted(_TABLE_GENERATORS),
        help="which published distortion table to regenerate",
    )

    figure_parser = subparsers.add_parser("figure", help="regenerate a figure")
    figure_parser.add_argument(
        "name",
        choices=[*available_figures(), "fig12"],
        help="which accuracy figure (or the fig12 timing breakdown) to regenerate",
    )
    figure_parser.add_argument(
        "--scale", default="small", choices=sorted(SCALE_PRESETS), help="experiment scale"
    )
    figure_parser.add_argument(
        "--seed", type=int, default=0, help="base seed of the training runs"
    )

    subparsers.add_parser("bounds", help="gamma-bound tightness and Claim 2 checks")

    ablation_parser = subparsers.add_parser("ablation", help="run an ablation study")
    ablation_parser.add_argument(
        "name",
        choices=["assignment", "aggregator", "scenarios"],
        help="assignment/aggregator design-space tables, or the "
        "fault-injection scenario matrix",
    )
    ablation_parser.add_argument(
        "--processes",
        type=int,
        default=0,
        help="worker processes for the scenario matrix (0/1 = serial; "
        "only used by 'scenarios')",
    )

    distortion_parser = subparsers.add_parser(
        "distortion", help="distortion table for a custom assignment"
    )
    distortion_parser.add_argument(
        "--scheme", default="mols", choices=available_schemes(),
        help="assignment scheme to analyze",
    )
    distortion_parser.add_argument(
        "--load", type=int, default=5, help="files per worker l (mols/frc/random)"
    )
    distortion_parser.add_argument(
        "--replication", type=int, default=3, help="copies per file r"
    )
    distortion_parser.add_argument(
        "--num-workers", type=int, default=None, help="cluster size K (frc/baseline/random)"
    )
    distortion_parser.add_argument(
        "--num-files", type=int, default=None, help="file count f (random scheme)"
    )
    distortion_parser.add_argument(
        "--m", type=int, default=None, help="Ramanujan parameter m"
    )
    distortion_parser.add_argument(
        "--s", type=int, default=None, help="Ramanujan parameter s"
    )
    distortion_parser.add_argument(
        "--q", type=int, nargs="+", required=True,
        help="Byzantine budgets to evaluate (one table row per value)",
    )

    scenario_parser = subparsers.add_parser(
        "scenario", help="run fault-injection scenarios and manage golden traces"
    )
    scenario_parser.add_argument(
        "action",
        choices=["list", "run", "record", "replay"],
        help="list the catalog; run one scenario; record/replay golden traces",
    )
    scenario_parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="catalog scenario name or path to a ScenarioSpec JSON file (run)",
    )
    scenario_parser.add_argument(
        "--name",
        action="append",
        default=None,
        help="restrict record/replay to these catalog scenarios (repeatable)",
    )
    scenario_parser.add_argument(
        "--golden-dir",
        type=pathlib.Path,
        default=None,
        help="golden trace directory (default: tests/golden)",
    )
    scenario_parser.add_argument(
        "--trace-out",
        type=pathlib.Path,
        default=None,
        help="write the run's full trace JSON to this path",
    )

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="expand, run, inspect and report process-parallel scenario sweeps",
    )
    campaign_parser.add_argument(
        "action",
        choices=["expand", "run", "status", "report"],
        help="expand: list the concrete scenarios of the grid; run: execute "
        "pending scenarios (resumable); status: completed/pending counts; "
        "report: aggregated accuracy-vs-q tables from stored records",
    )
    campaign_parser.add_argument(
        "target", help="path to a CampaignSpec JSON file"
    )
    campaign_parser.add_argument(
        "--processes",
        type=int,
        default=0,
        help="worker processes for 'run' (0/1 = serial, bit-identical either way)",
    )
    campaign_parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help=f"result-store root (default: {DEFAULT_STORE_ROOT}/); records land "
        "under <out>/<campaign-digest>/",
    )
    return parser


def _emit(rows: list[dict[str, float]], title: str, csv_path: pathlib.Path | None) -> str:
    text = format_rows(rows, title=title)
    if csv_path is not None:
        csv_path.write_text(rows_to_csv(rows))
    return text


def _run_list() -> str:
    lines = ["Distortion tables:"]
    for name, config in TABLE_CONFIGS.items():
        lines.append(f"  {name}: {config}")
    lines.append("")
    lines.append("Figures:")
    for name, description in FIGURE_DESCRIPTIONS.items():
        lines.append(f"  {name}: {description}")
    return "\n".join(lines)


def _run_table(args: argparse.Namespace) -> str:
    rows = _TABLE_GENERATORS[args.name]()
    return _emit(rows, f"{args.name} ({TABLE_CONFIGS[args.name]})", args.csv)


def _run_figure(args: argparse.Namespace) -> str:
    if args.name == "fig12":
        rows = generate_figure12()
        return _emit(rows, FIGURE_DESCRIPTIONS["fig12"], args.csv)
    results = run_accuracy_figure(args.name, scale=args.scale, seed=args.seed)
    series = {label: result.trace.accuracy_series() for label, result in results.items()}
    # The digest names the curve's spec: figure_scenarios(...)[i].to_json() is a
    # file `repro scenario run` accepts, so one curve can be re-run alone.
    specs = figure_scenarios(args.name, scale=args.scale, seed=args.seed)
    summary = [
        {
            "curve": label,
            "final_accuracy": result.trace.final_accuracy,
            "best_accuracy": result.trace.best_accuracy,
            "mean_predicted_distortion": float(result.predicted_distortion.mean()),
            "spec_digest": spec.digest(),
        }
        for spec, (label, result) in zip(specs, results.items(), strict=True)
    ]
    if args.csv is not None:
        args.csv.write_text(rows_to_csv(summary))
    return (
        format_series(series, title=FIGURE_DESCRIPTIONS.get(args.name, args.name))
        + "\n\n"
        + format_rows(summary, title="summary")
    )


def _run_bounds(args: argparse.Namespace) -> str:
    gamma_rows = bound_tightness_table()
    claim_rows = claim2_verification_table()
    text = format_rows(gamma_rows, title="Gamma bound tightness (MOLS l=5, r=3)")
    text += "\n\n" + format_rows(claim_rows, title="Claim 2 exact small-q values")
    if args.csv is not None:
        args.csv.write_text(rows_to_csv(gamma_rows))
    return text


def _run_ablation(args: argparse.Namespace) -> str:
    if args.name == "assignment":
        rows = assignment_structure_ablation()
        return _emit(rows, "Assignment-structure ablation", args.csv)
    if args.name == "scenarios":
        rows = scenario_matrix_table(processes=args.processes)
        return _emit(rows, "Fault-injection scenario matrix", args.csv)
    rows = aggregator_ablation()
    return _emit(rows, "Post-vote aggregator ablation", args.csv)


def _run_distortion(args: argparse.Namespace) -> str:
    kwargs: dict[str, object] = {}
    if args.scheme == "mols":
        kwargs = {"load": args.load, "replication": args.replication}
    elif args.scheme == "ramanujan":
        kwargs = {"m": args.m or args.replication, "s": args.s or args.load}
    elif args.scheme == "frc":
        kwargs = {
            "num_workers": args.num_workers or args.load * args.replication,
            "replication": args.replication,
        }
    elif args.scheme == "baseline":
        kwargs = {"num_workers": args.num_workers or args.load * args.replication}
    elif args.scheme == "random":
        kwargs = {
            "num_workers": args.num_workers or args.load * args.replication,
            "num_files": args.num_files or args.load * args.load,
            "replication": args.replication,
        }
    scheme = create_scheme(args.scheme, **kwargs)
    rows = distortion_comparison_table(scheme.assignment, args.q)
    return _emit(rows, f"distortion for {scheme.assignment.name}", args.csv)


def _load_scenario_spec(target: str) -> ScenarioSpec:
    """Resolve a CLI target: a catalog scenario name or a spec JSON path.

    Catalog names win over same-named files in the working directory so a
    stray ``mols-clean`` file can never shadow the committed matrix; spec
    files are addressed by their ``.json`` suffix (or any explicit path).
    """
    if target in scenario_names():
        return get_scenario(target)
    path = pathlib.Path(target)
    if path.suffix == ".json" or path.is_file():
        return ScenarioSpec.from_json_file(path)
    return get_scenario(target)  # raises listing the catalog names


def _run_scenario_cmd(args: argparse.Namespace) -> str:
    if args.action == "list":
        lines = ["Golden scenario matrix:"]
        for name in scenario_names():
            spec = get_scenario(name)
            notes = []
            if spec.runtime.is_event:
                parts = []
                if spec.runtime.deadline is not None:
                    parts.append(f"deadline={spec.runtime.deadline:g}s")
                if spec.runtime.quorum is not None:
                    parts.append(f"quorum={spec.runtime.quorum}")
                if spec.runtime.partial:
                    parts.append("partial")
                notes.append(f"async: {', '.join(parts)}")
            if spec.topology is not None:
                notes.append(f"topology: groups={spec.topology.groups}")
            if spec.data.partition is not None:
                partition = spec.data.partition
                notes.append(
                    f"non-iid: {partition.kind}, alpha={partition.alpha:g}"
                )
            suffix = f" [{'; '.join(notes)}]" if notes else ""
            lines.append(f"  {name}: {spec.description}{suffix}")
        lines.append("")
        lines.append("Run one with: repro scenario run <name | spec.json>")
        return "\n".join(lines)
    if args.action == "run":
        if args.target is None:
            raise ReproError(
                "scenario run requires a catalog name or a spec JSON path"
            )
        spec = _load_scenario_spec(args.target)
        result = run_scenario(spec)
        if args.trace_out is not None:
            result.trace.write_json_file(args.trace_out)
        rows = [result.summary()]
        text = _emit(rows, f"scenario {spec.name!r}", args.csv)
        fault_total = sum(len(r.faults) for r in result.trace.rounds)
        text += (
            f"\n\nrounds={len(result.trace.rounds)} "
            f"fault_events={fault_total} "
            f"spec_digest={spec.digest()} "
            f"final_params_digest={result.trace.final_params_digest}"
        )
        return text
    # Accept a positional name for record/replay too ('scenario record X'
    # mirrors 'scenario run X'); never silently ignore it.
    names = list(args.name) if args.name else []
    if args.target is not None:
        names.append(args.target)
    names = names or None
    if args.action == "record":
        written = record_goldens(names, golden_dir=args.golden_dir)
        return "\n".join(f"recorded {path}" for path in written)
    # replay
    lines = []
    for name in names if names is not None else scenario_names():
        replay_golden(name, golden_dir=args.golden_dir)
        lines.append(f"ok {name} ({golden_path(name, args.golden_dir)})")
    return "\n".join(lines)


def _run_campaign_cmd(args: argparse.Namespace) -> str:
    campaign = CampaignSpec.from_json_file(args.target)
    store = ResultStore(campaign, root=args.out)
    executor = CampaignExecutor(campaign, store=store, processes=args.processes)
    if args.action == "expand":
        keys = campaign.axis_keys()
        rows = []
        for scenario in executor.scenarios:
            row: dict[str, object] = {"scenario": scenario.spec.name}
            for path, label in scenario.labels.items():
                row[keys[path]] = label
            row["seed"] = scenario.spec.seed
            row["spec_digest"] = scenario.spec.digest()
            rows.append(row)
        text = _emit(
            rows,
            f"Campaign {campaign.name!r}: {len(rows)} scenarios "
            f"(digest {campaign.digest()})",
            args.csv,
        )
        return text
    if args.action == "run":
        result = executor.run()
        text = _emit(
            result.summary_rows(), f"Campaign {campaign.name!r} results", args.csv
        )
        text += (
            f"\n\nran={result.ran} skipped={result.skipped} "
            f"total={len(result.records)} store={result.store_dir}"
        )
        return text
    if args.action == "status":
        status = executor.status()
        lines = [
            f"campaign {status.campaign!r} (digest {status.digest}): "
            f"{len(status.completed)}/{status.total} scenarios completed, "
            f"{len(status.pending)} pending"
        ]
        for name in status.pending:
            lines.append(f"  pending {name}")
        lines.append(f"store: {store.directory}")
        return "\n".join(lines)
    # report: render from stored records only, never triggering runs
    records = [executor.store.load(s.spec.digest()) for s in executor.scenarios]
    result = CampaignRunResult(
        campaign=campaign,
        scenarios=executor.scenarios,
        records=records,
        store_dir=str(store.directory),
    )
    if args.csv is not None:
        args.csv.write_text(rows_to_csv(result.summary_rows()))
    return campaign_report(result)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            output = _run_list()
        elif args.command == "table":
            output = _run_table(args)
        elif args.command == "figure":
            output = _run_figure(args)
        elif args.command == "bounds":
            output = _run_bounds(args)
        elif args.command == "ablation":
            output = _run_ablation(args)
        elif args.command == "distortion":
            output = _run_distortion(args)
        elif args.command == "scenario":
            output = _run_scenario_cmd(args)
        elif args.command == "campaign":
            output = _run_campaign_cmd(args)
        else:  # pragma: no cover - argparse enforces choices
            parser.error(f"unknown command {args.command!r}")
            return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(output)
    except BrokenPipeError:  # e.g. `repro ... | head`; not an error
        sys.stderr.close()  # suppress the interpreter's shutdown warning
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
