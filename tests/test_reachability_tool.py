"""``tools/reachability.py`` keys the defs it saw entered by file and first line,
and refuses a kept def whose verdict is "test oracle"."""

from __future__ import annotations

import importlib.util
import pathlib
import runpy

import pytest

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


def test_a_kept_test_oracle_is_refused_before_any_entry_point(tmp_path, monkeypatch, capsys):
    """A kept line whose verdict says "test oracle" exits 1 and is named by
    its line, before any entry point runs."""
    reachability = load_tool()
    kept = tmp_path / "tools" / "reachability_kept.txt"
    kept.parent.mkdir()
    kept.write_text(
        "# header comment naming a test oracle is not a line\n"
        "src/repro/a.py f  # interface; reached via its overrides\n"
        "src/repro/a.py g  # test oracle (the per-file reference): tests/test_a.py\n"
    )
    monkeypatch.setattr(reachability, "ROOT", tmp_path)
    monkeypatch.setattr(reachability, "KEPT", kept)
    monkeypatch.setattr(reachability, "_steps", lambda workdir: pytest.fail("an entry point ran"))
    assert reachability.main([]) == 1
    err = capsys.readouterr().err
    assert "tools/reachability_kept.txt:3 keeps a test oracle" in err
    assert "src/repro/a.py g" in err and "src/repro/a.py f " not in err
