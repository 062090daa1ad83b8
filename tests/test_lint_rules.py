"""Tests for ``repro lint`` (repro.analysis): each rule's positive, negative
and waiver behavior on fixture trees, plus meta-tests pinning the real source
tree to zero findings and the ``--format json`` schema.

Fixture files are written under ``tmp_path/repro/...`` — the engine anchors
package-relative paths at the innermost ``repro`` directory, so fixtures
scope to rules exactly like the real package.
"""

import json
import pathlib
import textwrap

from repro.analysis import lint_paths
from repro.analysis.cli import run_lint
from repro.analysis.engine import (
    PARSE_ERROR,
    WAIVER_NO_REASON,
    WAIVER_UNKNOWN_RULE,
    LintEngine,
)
from repro.analysis.rules import ALL_RULES

SRC_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

RULE_IDS = ("RNG-001", "DTYPE-001")


def lint_tree(tmp_path, files):
    """Write ``files`` (relpath -> source) under tmp_path/repro and lint."""
    for relpath, source in files.items():
        path = tmp_path / "repro" / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return lint_paths([tmp_path])


def rules_found(report):
    return sorted({finding.rule for finding in report.findings})


# ---------------------------------------------------------------------------
# RNG-001
# ---------------------------------------------------------------------------


def test_rng_flags_default_rng_outside_seam(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "attacks/custom.py": """
            import numpy as np

            rng = np.random.default_rng(7)
            """
        },
    )
    assert rules_found(report) == ["RNG-001"]
    assert "default_rng" in report.findings[0].message


def test_rng_flags_legacy_global_draws_and_stdlib_random(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "training/sampling.py": """
            import random

            import numpy as np

            def draw():
                random.shuffle([1, 2])
                return np.random.normal(size=3)
            """
        },
    )
    assert [f.rule for f in report.findings] == ["RNG-001", "RNG-001"]


def test_rng_flags_from_numpy_random_import(tmp_path):
    report = lint_tree(
        tmp_path,
        {"cluster/x.py": "from numpy.random import default_rng\n"},
    )
    assert rules_found(report) == ["RNG-001"]


def test_rng_allows_seam_module_and_generator_annotations(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "utils/rng.py": """
            import numpy as np

            def as_generator(seed):
                return np.random.default_rng(seed)
            """,
            "attacks/noise.py": """
            import numpy as np

            def payload(rng: np.random.Generator) -> float:
                return float(rng.standard_normal())
            """,
        },
    )
    assert report.ok


def test_rng_waiver_with_reason_suppresses(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "attacks/custom.py": """
            import numpy as np

            rng = np.random.default_rng(7)  # repro-lint: disable=RNG-001 (fixture exercises the waiver path)
            """
        },
    )
    assert report.ok


# ---------------------------------------------------------------------------
# DTYPE-001
# ---------------------------------------------------------------------------


def test_dtype_flags_float_literals_outside_seam(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "training/loop.py": """
            import numpy as np

            a = np.zeros(3, dtype=np.float64)
            b = np.ones(3).astype("float32")
            c = np.dtype(float)
            """
        },
    )
    # np.float64 is flagged both as an attribute and as the dtype= value
    assert rules_found(report) == ["DTYPE-001"]
    assert len(report.findings) >= 3


def test_dtype_allows_seam_ints_and_default_dtype(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "core/backend.py": """
            import numpy as np

            DEFAULT_DTYPE = np.dtype(np.float64)
            """,
            "training/loop.py": """
            import numpy as np

            from repro.core.backend import DEFAULT_DTYPE

            a = np.zeros(3, dtype=DEFAULT_DTYPE)
            b = np.zeros(3, dtype=np.int64)
            c = np.zeros(3, dtype=bool)
            """,
        },
    )
    assert report.ok


def test_dtype_flags_from_numpy_float_import(tmp_path):
    report = lint_tree(
        tmp_path,
        {"graphs/x.py": "from numpy import float64\n"},
    )
    assert rules_found(report) == ["DTYPE-001"]


# ---------------------------------------------------------------------------
# Waiver mechanics
# ---------------------------------------------------------------------------


def test_reasonless_waiver_suppresses_but_reports_waiver_001(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "attacks/custom.py": """
            import numpy as np

            rng = np.random.default_rng(7)  # repro-lint: disable=RNG-001
            """
        },
    )
    assert rules_found(report) == [WAIVER_NO_REASON]
    assert not report.ok  # lint stays red until the reason is written down


def test_waiver_for_unknown_rule_reports_waiver_002(tmp_path):
    report = lint_tree(
        tmp_path,
        {"attacks/x.py": "x = 1  # repro-lint: disable=NOPE-123 (typo'd id)\n"},
    )
    assert rules_found(report) == [WAIVER_UNKNOWN_RULE]


def test_one_waiver_may_cover_multiple_rules(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "attacks/custom.py": """
            import numpy as np

            x = np.zeros(3, dtype=np.float64) + np.random.normal()  # repro-lint: disable=RNG-001,DTYPE-001 (fixture)
            """
        },
    )
    assert report.ok


def test_unparseable_file_reports_parse_error(tmp_path):
    report = lint_tree(tmp_path, {"attacks/broken.py": "def f(:\n"})
    assert rules_found(report) == [PARSE_ERROR]


def test_undecodable_file_reports_parse_error(tmp_path):
    path = tmp_path / "repro" / "attacks" / "latin1.py"
    path.parent.mkdir(parents=True)
    path.write_bytes(b"name = '\xe9t\xe9'\n")
    report = lint_paths([tmp_path])
    assert rules_found(report) == [PARSE_ERROR]


# ---------------------------------------------------------------------------
# Meta: the real tree is clean; CLI contract; JSON schema
# ---------------------------------------------------------------------------


def test_real_source_tree_lints_clean():
    report = lint_paths([SRC_ROOT])
    assert report.findings == (), "\n".join(f.render() for f in report.findings)
    assert report.files_scanned > 100


def test_engine_registers_all_six_rules():
    # Two since DIGEST-001, KERNEL-001, REG-001 and COW-001 went: their
    # invariants hold by construction (the field table, read-only kernel
    # inputs, the registries built from declared names, the read-only payload
    # store).  The test id is kept.
    assert tuple(rule.rule_id for rule in ALL_RULES) == RULE_IDS
    engine = LintEngine()
    for rule_id in RULE_IDS:
        assert rule_id in engine.known_rules


def test_cli_exit_codes_and_check_quietness(tmp_path):
    bad = tmp_path / "repro" / "attacks" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import numpy as np\nrng = np.random.default_rng(1)\n")
    code, output = run_lint([str(tmp_path)])
    assert code == 1
    assert "RNG-001" in output
    ok_dir = tmp_path / "repro" / "clean"
    ok_dir.mkdir()
    (ok_dir / "fine.py").write_text("x = 1\n")
    code, output = run_lint(["--check", str(ok_dir)])
    assert code == 0
    assert output == ""


def test_cli_list_rules_mentions_every_rule():
    code, output = run_lint(["--list-rules"])
    assert code == 0
    for rule_id in RULE_IDS:
        assert rule_id in output


def test_json_format_schema_is_stable(tmp_path):
    bad = tmp_path / "repro" / "attacks" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import numpy as np\nrng = np.random.default_rng(1)\n")
    code, output = run_lint(["--format", "json", str(tmp_path)])
    assert code == 1
    document = json.loads(output)
    assert sorted(document) == ["files_scanned", "findings", "summary", "version"]
    assert document["version"] == 1
    assert document["files_scanned"] == 1
    (finding,) = document["findings"]
    assert sorted(finding) == ["col", "line", "message", "path", "rule"]
    assert finding["rule"] == "RNG-001"
    assert finding["line"] == 2
    assert document["summary"] == {"total": 1, "by_rule": {"RNG-001": 1}}


def test_repro_cli_dispatches_lint_subcommand(tmp_path):
    from repro.cli import main

    ok_dir = tmp_path / "repro" / "clean"
    ok_dir.mkdir(parents=True)
    (ok_dir / "fine.py").write_text("x = 1\n")
    assert main(["lint", "--check", str(ok_dir)]) == 0
    bad = tmp_path / "repro" / "attacks" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import numpy as np\nrng = np.random.default_rng(1)\n")
    assert main(["lint", "--check", str(tmp_path)]) == 1


def test_missing_path_is_one_error_line_not_a_traceback(tmp_path, capsys):
    from repro.cli import main

    missing = tmp_path / "does_not_exist.py"
    assert main(["lint", str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no such file or directory: {missing}\n"
