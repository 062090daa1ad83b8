"""``tools/reachability.py`` keys the defs it saw entered by file and first line."""

from __future__ import annotations

import importlib.util
import pathlib
import runpy

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "reachability", REPO_ROOT / "tools" / "reachability.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_file_edited_mid_run_keeps_its_reached_defs(tmp_path):
    """A step calls both defs of a one-module tree, then inserts a line at the
    top of the module, as an edit made while the tool runs would: no def is
    reported unreached.  Both were, with their shifted lines, while the table
    of defs was compiled after the steps."""
    reachability = load_tool()
    src = tmp_path / "pkg"
    src.mkdir()
    module = src / "module.py"
    module.write_text("def first():\n    return 1\n\n\ndef second():\n    return 2\n")

    def step():
        defs = runpy.run_path(str(module))
        assert defs["first"]() + defs["second"]() == 3
        module.write_text("# a line inserted mid-run\n" + module.read_text())

    unreached, existing = reachability.unreached_defs([step], src=src, root=tmp_path)
    assert unreached == []
    assert existing == {("pkg/module.py", "first"), ("pkg/module.py", "second")}
