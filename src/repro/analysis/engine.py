"""Rule engine: file discovery, parsing, waivers and finding collection.

The engine parses every target file into a :class:`ModuleInfo`, runs every
rule over it and filters the raw findings through the per-line waivers.
Rules are per-module: none needs facts from another file.

Waiver grammar (one comment per line, applying to findings on that line)::

    # repro-lint: disable=RULE-ID (reason why the invariant is intact)
    # repro-lint: disable=RULE-A,RULE-B (one reason may cover several rules)

The reason is not optional: a waiver without one is reported as a
``WAIVER-001`` finding, so CI stays red until the author writes down *why*
the line is exempt.  Waivers naming unknown rule ids are
reported as ``WAIVER-002``.
"""

from __future__ import annotations

import ast
import io
import pathlib
import re
import tokenize
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from repro.exceptions import ConfigurationError

__all__ = [
    "Finding",
    "Waiver",
    "ModuleInfo",
    "LintReport",
    "LintEngine",
    "lint_paths",
]

#: rule id of the "waiver carries no reason" finding
WAIVER_NO_REASON = "WAIVER-001"
#: rule id of the "waiver names an unknown rule" finding
WAIVER_UNKNOWN_RULE = "WAIVER-002"
#: rule id reported for files that do not decode or parse
PARSE_ERROR = "PARSE-001"

_WAIVER_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s\-]+?)\s*(?:\((?P<reason>.*)\))?\s*$"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass(frozen=True)
class Waiver:
    """A parsed ``# repro-lint: disable=...`` comment."""

    line: int
    rules: tuple[str, ...]
    reason: str


@dataclass
class ModuleInfo:
    """One parsed source file plus the metadata rules key off."""

    path: pathlib.Path
    relpath: str  # posix path relative to the linted package root
    source: str
    tree: ast.Module | None
    waivers: Mapping[int, Waiver] = field(default_factory=dict)

    @property
    def lines(self) -> list[str]:
        return self.source.splitlines()


def _parse_waivers(source: str) -> dict[int, Waiver]:
    """Per-line waivers from the file's comments (tokenizer-accurate)."""
    waivers: dict[int, Waiver] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except tokenize.TokenError:
        return waivers
    for line, text in comments:
        match = _WAIVER_RE.search(text)
        if match is None:
            continue
        rules = tuple(
            part.strip().upper() for part in match.group(1).split(",") if part.strip()
        )
        reason = (match.group("reason") or "").strip()
        waivers[line] = Waiver(line=line, rules=rules, reason=reason)
    return waivers


def _package_relpath(path: pathlib.Path, root: pathlib.Path) -> str:
    """Path of ``path`` relative to its ``repro`` package root.

    Rules scope themselves by package-relative paths ("attacks/alie.py",
    "utils/rng.py").  The anchor is the innermost directory named ``repro``
    on the file's path — which makes fixture trees (``tmp/repro/...``) lint
    exactly like the real package — falling back to the scan root.
    """
    parts = path.parts
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index + 1 :])
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.name


@dataclass(frozen=True)
class LintReport:
    """The outcome of one engine run."""

    findings: tuple[Finding, ...]
    files_scanned: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict[str, object]:
        """Schema-stable JSON form (``--format json``)."""
        return {
            "version": 1,
            "files_scanned": self.files_scanned,
            "findings": [finding.to_dict() for finding in self.findings],
            "summary": {"total": len(self.findings), "by_rule": self.by_rule()},
        }


class LintEngine:
    """Runs a rule set over a file tree and applies waivers."""

    def __init__(self, rules: Sequence["Rule"] | None = None):
        if rules is None:
            from repro.analysis.rules import ALL_RULES

            rules = ALL_RULES
        self.rules = tuple(rules)
        self.known_rules = frozenset(rule.rule_id for rule in self.rules) | {
            WAIVER_NO_REASON,
            WAIVER_UNKNOWN_RULE,
            PARSE_ERROR,
        }

    # -- file discovery ------------------------------------------------------
    @staticmethod
    def collect_files(paths: Iterable[pathlib.Path]) -> list[pathlib.Path]:
        files: set[pathlib.Path] = set()
        for path in paths:
            path = pathlib.Path(path)
            if path.is_dir():
                files.update(path.rglob("*.py"))
            elif path.exists():
                files.add(path)
            else:
                raise ConfigurationError(f"no such file or directory: {path}")
        return sorted(files)

    def load_module(self, path: pathlib.Path, root: pathlib.Path) -> ModuleInfo:
        source = ""
        try:
            source = path.read_text()
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, ValueError):  # ValueError: undecodable bytes, NUL
            tree = None
        return ModuleInfo(
            path=path,
            relpath=_package_relpath(path, root),
            source=source,
            tree=tree,
            waivers=_parse_waivers(source),
        )

    # -- linting -------------------------------------------------------------
    def run(self, paths: Sequence[pathlib.Path]) -> LintReport:
        paths = [pathlib.Path(p) for p in paths]
        root = paths[0] if paths and paths[0].is_dir() else pathlib.Path(".")
        files = self.collect_files(paths)
        findings: list[Finding] = []
        for path in files:
            findings.extend(self._lint_module(self.load_module(path, root)))
        return LintReport(findings=tuple(sorted(findings)), files_scanned=len(files))

    def _lint_module(self, module: ModuleInfo) -> Iterator[Finding]:
        display = str(module.path)
        if module.tree is None:
            yield Finding(
                path=display,
                line=1,
                col=0,
                rule=PARSE_ERROR,
                message="file does not decode or parse; repro lint needs valid Python",
            )
            return
        for rule in self.rules:
            for finding in rule.check_module(module):
                waiver = module.waivers.get(finding.line)
                # A reasonless waiver suppresses too, but surfaces as its own
                # WAIVER-001 below, so the lint stays red until the author
                # writes the reason down.
                if waiver is None or finding.rule not in waiver.rules:
                    yield finding
        for line, waiver in sorted(module.waivers.items()):
            if not waiver.reason:
                yield Finding(
                    path=display,
                    line=line,
                    col=0,
                    rule=WAIVER_NO_REASON,
                    message=(
                        f"waiver for {', '.join(waiver.rules)} carries no reason; "
                        "write '# repro-lint: disable=RULE (why this is safe)'"
                    ),
                )
            for rule_id in waiver.rules:
                if rule_id not in self.known_rules:
                    yield Finding(
                        path=display,
                        line=line,
                        col=0,
                        rule=WAIVER_UNKNOWN_RULE,
                        message=f"waiver names unknown rule {rule_id!r}",
                    )


def lint_paths(
    paths: Sequence[pathlib.Path | str], rules: Sequence["Rule"] | None = None
) -> LintReport:
    """Lint files/directories and return the :class:`LintReport`."""
    engine = LintEngine(rules=rules)
    return engine.run([pathlib.Path(p) for p in paths])
