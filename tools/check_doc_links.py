#!/usr/bin/env python
"""Check relative links and anchors in the repo's markdown docs.

Scans the documentation set for markdown links ``[text](target)`` and fails
when a relative target does not exist on disk, or when a ``#anchor`` does
not match any heading of the target file (GitHub slug rules).  External
``http(s)://`` and ``mailto:`` links are skipped — CI must not depend on
the network.  Fenced code blocks are ignored so shell snippets containing
brackets cannot produce false positives.

Usage::

    python tools/check_doc_links.py            # check the default doc set
    python tools/check_doc_links.py FILE...    # check specific files
"""

from __future__ import annotations

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

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_FENCE = re.compile(r"```.*?```", re.DOTALL)


def anchors_of(path: pathlib.Path) -> set[str]:
    text = _FENCE.sub("", path.read_text())
    return {github_anchor(match.group(1)) for match in _HEADING.finditer(text)}


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
    files = [pathlib.Path(a) for a in argv] if argv else [
        REPO_ROOT / name for name in DEFAULT_FILES
    ]
    problems: list[str] = []
    for path in files:
        if not path.exists():
            problems.append(f"missing documentation file: {path}")
            continue
        problems.extend(check_file(path))
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    print(f"checked {len(files)} files, all links and anchors resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
