"""Command-line front end of the invariant linter.

``repro lint`` and ``python -m repro.analysis`` both land here.  With no
paths the linter scans the installed ``repro`` package itself, so the CI
gate is simply ``repro lint --check`` from any working directory.

Exit code 0 means zero findings; any finding — including a waiver that
carries no reason — exits 1, and so does a path that does not exist (one
``error:`` line).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Sequence

from repro.analysis.engine import LintEngine, LintReport
from repro.exceptions import ReproError

__all__ = ["build_parser", "run_lint", "main"]


def default_root() -> pathlib.Path:
    """The source tree of the installed ``repro`` package."""
    import repro

    return pathlib.Path(repro.__file__).resolve().parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="statically enforce the repo's reproducibility invariants",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=pathlib.Path,
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        dest="format",
        choices=("text", "json"),
        default="text",
        help="findings as human-readable lines or a schema-stable JSON document",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="CI mode: quiet on success, findings + non-zero exit otherwise "
        "(the exit code is the same without it; --check only trims output)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id and the invariant it enforces, then exit",
    )
    return parser


def _render_text(report: LintReport, check: bool) -> str:
    lines = [finding.render() for finding in report.findings]
    if report.ok:
        return (
            "" if check else f"ok: 0 findings across {report.files_scanned} files"
        )
    by_rule = ", ".join(f"{rule}={n}" for rule, n in report.by_rule().items())
    lines.append(
        f"{len(report.findings)} finding(s) across {report.files_scanned} "
        f"files ({by_rule})"
    )
    return "\n".join(lines)


def run_lint(argv: Sequence[str] | None = None) -> tuple[int, str]:
    """Run the linter; returns ``(exit_code, output_text)``."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    engine = LintEngine()
    if args.list_rules:
        lines = [f"{rule.rule_id}: {rule.invariant}" for rule in engine.rules]
        return 0, "\n".join(lines)
    paths = args.paths or [default_root()]
    report = engine.run(paths)
    if args.format == "json":
        output = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    else:
        output = _render_text(report, check=args.check)
    return (0 if report.ok else 1), output


def main(argv: Sequence[str] | None = None) -> int:
    try:
        code, output = run_lint(argv)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if output:
        print(output)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
