#!/usr/bin/env python
"""Check relative links, anchors and section citations in the repo's docs.

Scans the documentation set for markdown links ``[text](target)`` and fails
when a relative target does not exist on disk, or when a ``#anchor`` does
not match any heading of the target file (GitHub slug rules).  External
``http(s)://`` and ``mailto:`` links are skipped — CI must not depend on
the network.  Fenced code blocks are ignored so shell snippets containing
brackets cannot produce false positives.

It also resolves section citations in the docs and in every ``.py`` file
under ``src/``, ``tools/``, ``tests/`` and ``benchmarks/``: ``EXPERIMENTS.md``
or ``DESIGN.md``, a comma and a title in double quotes.  A citation may wrap
across lines, comment markers included; its quoted title must be a prefix
of a heading or of a bold lead (``**…**`` opening a line) of the cited
file.  CHANGES.md is append-only history, so its citations are not checked.

Usage::

    python tools/check_doc_links.py            # check the default doc set
    python tools/check_doc_links.py FILE...    # check specific files
"""

from __future__ import annotations

import functools
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from docs_common import github_anchor  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

DEFAULT_FILES = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "docs/API.md",
    "CHANGES.md",
    "ROADMAP.md",
)

#: files whose section citations are checked, besides the ``.py`` files
#: under CITING_DIRS; CHANGES.md is history and keeps its old titles, even
#: when it is named on the command line
CITING_DOCS = ("README.md", "DESIGN.md", "ROADMAP.md", "EXPERIMENTS.md")
CITING_DIRS = ("src", "tools", "tests", "benchmarks")

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_FENCE = re.compile(r"```.*?```", re.DOTALL)
_CITATION = re.compile(r'\b(EXPERIMENTS|DESIGN)\.md,\s+"([^"]{1,300})"')
_BOLD_LEAD = re.compile(
    r"^[ \t]*(?:[-*+][ \t]+|\d+\.[ \t]+)?\*\*(.+?)\*\*", re.MULTILINE | re.DOTALL
)
#: a line break inside a citation, with the next line's indent and comment marker
_WRAP = re.compile(r"\s*\n\s*(?:#:?\s*)?")


def anchors_of(path: pathlib.Path) -> set[str]:
    text = _FENCE.sub("", path.read_text())
    return {github_anchor(match.group(1)) for match in _HEADING.finditer(text)}


def _squash(text: str) -> str:
    return " ".join(_WRAP.sub(" ", text).split())


@functools.cache
def section_titles(target: str) -> list[str]:
    """The headings and bold leads of a root markdown file, whitespace squashed."""
    text = _FENCE.sub("", (REPO_ROOT / target).read_text())
    found = [m.group(1) for m in _HEADING.finditer(text)]
    found += [m.group(1) for m in _BOLD_LEAD.finditer(text)]
    return [_squash(title) for title in found]


def check_citations(path: pathlib.Path) -> list[str]:
    """Every section citation in ``path`` names a title of the cited file."""
    problems: list[str] = []
    text = path.read_text()
    for match in _CITATION.finditer(text):
        target = f"{match.group(1)}.md"
        quote = _squash(match.group(2))
        if not any(title.startswith(quote) for title in section_titles(target)):
            line = text.count("\n", 0, match.start()) + 1
            problems.append(
                f"{path}:{line}: citation {target}, {quote!r} names no heading "
                f"or bold lead of {target}"
            )
    return problems


def citing_files() -> list[pathlib.Path]:
    files = [REPO_ROOT / name for name in CITING_DOCS]
    for directory in CITING_DIRS:
        files.extend(sorted((REPO_ROOT / directory).rglob("*.py")))
    return files


def check_file(path: pathlib.Path) -> list[str]:
    problems: list[str] = []
    text = _FENCE.sub("", path.read_text())
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        raw_path, _, anchor = target.partition("#")
        if raw_path:
            resolved = (path.parent / raw_path).resolve()
            if not resolved.exists():
                problems.append(f"{path}: broken link {target!r} (missing {resolved})")
                continue
        else:
            resolved = path
        if anchor:
            if resolved.suffix != ".md":
                problems.append(
                    f"{path}: anchor link {target!r} into non-markdown file"
                )
            elif anchor not in anchors_of(resolved):
                problems.append(
                    f"{path}: broken anchor {target!r} (no heading slug "
                    f"{anchor!r} in {resolved.name})"
                )
    return problems


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        files = [pathlib.Path(a) for a in argv]
        citing = [path for path in files if path.name != "CHANGES.md"]
    else:
        files = [REPO_ROOT / name for name in DEFAULT_FILES]
        citing = citing_files()
    problems: list[str] = []
    for path in files:
        if not path.exists():
            problems.append(f"missing documentation file: {path}")
        elif path.suffix == ".md":
            problems.extend(check_file(path))
    for path in citing:
        if path.exists():
            problems.extend(check_citations(path))
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    print(
        f"checked {len(files)} files, all links and anchors resolve; "
        f"{len(citing)} files, all section citations resolve"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
