#!/usr/bin/env python
"""Generate docs/API.md from the public surface of the library.

The reference is *introspected*, never hand-written: for each documented
module the script walks ``__all__``, renders signatures with
:mod:`inspect` and takes the first paragraph of each docstring.  CI runs
``--check`` (regenerate in memory, compare against the committed file) so
the reference cannot drift silently from the code.

Usage::

    PYTHONPATH=src python tools/gen_api_docs.py            # rewrite docs/API.md
    PYTHONPATH=src python tools/gen_api_docs.py --check    # fail on drift
    PYTHONPATH=src python tools/gen_api_docs.py --output some/other.md
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from docs_common import github_anchor  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFAULT_OUTPUT = REPO_ROOT / "docs" / "API.md"

#: The documented public surface, in presentation order.
MODULES = (
    "repro.scenarios",
    "repro.campaigns",
    "repro.attacks",
    "repro.data.batching",
    "repro.data.datasets",
    "repro.data.synthetic",
    "repro.cluster.events",
    "repro.core.backend",
    "repro.core.vote_tensor",
    "repro.aggregation.registry",
    "repro.assignment.registry",
)

HEADER = """\
# API reference

The public surface of the reproduction library, by module.  **Generated by
`tools/gen_api_docs.py` — do not edit by hand**; regenerate with::

    PYTHONPATH=src python tools/gen_api_docs.py

CI runs `tools/gen_api_docs.py --check`, so this file always matches the
code it documents.
"""


def first_paragraph(obj: object) -> str:
    """The first paragraph of an object's docstring, joined to one line."""
    doc = inspect.getdoc(obj)
    if not doc:
        return "*(undocumented)*"
    paragraph = doc.split("\n\n", 1)[0]
    return " ".join(line.strip() for line in paragraph.splitlines())


def _format_annotation(annotation: object) -> str:
    # `from __future__ import annotations` leaves annotations as strings.
    if isinstance(annotation, str):
        return annotation.strip("'\"")
    return inspect.formatannotation(annotation)


def render_signature(obj: object) -> str:
    try:
        sig = inspect.signature(obj)
    except (TypeError, ValueError):
        return "(...)"
    parts = []
    for param in sig.parameters.values():
        text = param.name
        if param.kind is inspect.Parameter.VAR_POSITIONAL:
            text = f"*{text}"
        elif param.kind is inspect.Parameter.VAR_KEYWORD:
            text = f"**{text}"
        annotated = param.annotation is not inspect.Parameter.empty
        if annotated:
            text += f": {_format_annotation(param.annotation)}"
        if param.default is not inspect.Parameter.empty:
            default = repr(param.default)
            if "<factory>" in default or "<" in default and " at 0x" in default:
                default = "..."
            text += f" = {default}" if annotated else f"={default}"
        parts.append(text)
    rendered = f"({', '.join(parts)})"
    returns = sig.return_annotation
    if returns is not inspect.Signature.empty and returns not in (None, "None"):
        rendered += f" -> {_format_annotation(returns)}"
    return rendered


def _public_methods(cls: type) -> list[tuple[str, object]]:
    """Methods/properties defined *on this class* (not inherited), public."""
    members = []
    for name, member in sorted(vars(cls).items()):
        if name.startswith("_"):
            continue
        if isinstance(member, (staticmethod, classmethod)):
            members.append((name, member.__func__))
        elif isinstance(member, property):
            members.append((name, member))
        elif inspect.isfunction(member):
            members.append((name, member))
    return members


def class_heading(name: str, cls: type) -> str:
    return f"`{name}{render_signature(cls)}`"


def render_class(name: str, cls: type, documented: dict[type, str]) -> list[str]:
    lines = [f"### {class_heading(name, cls)}", ""]
    lines.append(first_paragraph(cls))
    lines.append("")
    # Inherited members are documented once, on the base that defines them.
    bases = [base for base in cls.__mro__[1:] if base in documented and _public_methods(base)]
    if bases:
        links = ", ".join(
            f"[`{documented[base]}`](#{github_anchor(class_heading(documented[base], base))})"
            for base in bases
        )
        lines.append(f"Inherits the members of {links}.")
        lines.append("")
    methods = _public_methods(cls)
    if methods:
        lines.append("| member | description |")
        lines.append("| --- | --- |")
        for method_name, member in methods:
            if isinstance(member, property):
                label = f"`{method_name}` *(property)*"
            else:
                label = f"`{method_name}{render_signature(member)}`"
            lines.append(f"| {label} | {first_paragraph(member)} |")
        lines.append("")
    return lines


def render_function(name: str, func: object) -> list[str]:
    return [
        f"### `{name}{render_signature(func)}`",
        "",
        first_paragraph(func),
        "",
    ]


def exported_names(module_name: str) -> tuple[object, list[str]]:
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        raise SystemExit(f"{module_name} has no __all__; cannot document it")
    return module, sorted(set(exported))


def render_module(module_name: str, documented: dict[type, str]) -> list[str]:
    module, exported = exported_names(module_name)
    lines = [f"## `{module_name}`", ""]
    lines.append(first_paragraph(module))
    lines.append("")
    classes: list[tuple[str, type]] = []
    functions: list[tuple[str, object]] = []
    constants: list[tuple[str, object]] = []
    for name in exported:
        if name.startswith("_") or name == "__version__":
            continue
        obj = getattr(module, name)
        if inspect.isclass(obj):
            classes.append((name, obj))
        elif callable(obj):
            functions.append((name, obj))
        else:
            constants.append((name, obj))
    for name, cls in classes:
        lines.extend(render_class(name, cls, documented))
    for name, func in functions:
        lines.extend(render_function(name, func))
    if constants:
        lines.append("### Constants")
        lines.append("")
        for name, obj in constants:
            lines.append(f"* `{name}` = `{obj!r}`")
        lines.append("")
    return lines


def generate() -> str:
    lines = [HEADER]
    lines.append("Modules:")
    lines.append("")
    for module_name in MODULES:
        anchor = github_anchor(f"`{module_name}`")
        lines.append(f"* [`{module_name}`](#{anchor})")
    lines.append("")
    documented: dict[type, str] = {}
    for module_name in MODULES:
        module, exported = exported_names(module_name)
        for name in exported:
            if inspect.isclass(getattr(module, name)):
                documented.setdefault(getattr(module, name), name)
    for module_name in MODULES:
        lines.extend(render_module(module_name, documented))
    text = "\n".join(lines)
    return re.sub(r"\n{3,}", "\n\n", text).rstrip() + "\n"


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed file and fail on drift (writes nothing)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=DEFAULT_OUTPUT,
        help=f"output path (default: {DEFAULT_OUTPUT.relative_to(REPO_ROOT)})",
    )
    args = parser.parse_args(argv)
    text = generate()
    if args.check:
        committed = args.output.read_text() if args.output.exists() else ""
        if committed != text:
            print(
                f"error: {args.output} is stale; regenerate with "
                f"'PYTHONPATH=src python tools/gen_api_docs.py'",
                file=sys.stderr,
            )
            return 1
        print(f"{args.output} is up to date")
        return 0
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(text)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
