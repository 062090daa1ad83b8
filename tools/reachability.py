"""Function-level reachability of ``src/repro`` from the user-facing entry points.

Runs every entry point in this process under ``sys.setprofile``, records
each ``repro`` code object that is entered, and lists the named functions
that never were.  A def on that list is reached by nothing a user can run:
it is either a candidate for deletion (a test oracle among them: oracles
live in ``tests/``), or proof that an entry point is missing from
:func:`_steps`.

The entry points: ``repro list``, every ``table`` (one with ``--csv``),
``bounds``, ``distortion`` on all five schemes, the three ablations,
``scenario list``/``replay``/``record`` (every golden) and ``run`` (one
with ``--trace-out``), ``campaign expand|run|status|report`` on both example
campaigns, every ``figure`` at ``--scale tiny``, the ``examples/*.py``
scripts and ``benchmarks/e2e/run.py --quick``.  Every run covers every
entry point; it takes about three minutes, two of them the exact Table 5
search.

Usage::

    PYTHONPATH=src python tools/reachability.py [--json out.json]

It prints one line per unreached def, ``path:line qualname``, public ones
first.  No ``coverage`` install is needed.

It is also a gate, so dead code cannot regrow: every public def it finds
unreached must be listed in ``tools/reachability_kept.txt`` (one ``path
qualname  # verdict`` line each: interface, ``repr()`` only, benchmark
attach point, ...), and every def listed there must still exist.  No verdict
may say "test oracle": an oracle that lives in the engine's classes shares
their layout and state with what it checks, so such a line is refused before
any entry point runs.  Otherwise it names each offender on stderr and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import pathlib
import runpy
import sys
import tempfile
import threading
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
KEPT = ROOT / "tools" / "reachability_kept.txt"


def _cli(*argv: str):
    def step() -> None:
        from repro.cli import main

        main(list(argv))

    step.__name__ = "repro " + " ".join(argv)
    return step


def _script(path: str, *argv: str):
    def step() -> None:
        saved = sys.argv
        sys.argv = [path, *argv]
        try:
            runpy.run_path(str(ROOT / path), run_name="__main__")
        except SystemExit:
            pass
        finally:
            sys.argv = saved

    step.__name__ = " ".join((path, *argv))
    return step


def _steps(workdir: str) -> list:
    campaigns = ("examples/campaign_accuracy_vs_q.json", "examples/campaign_attack_zoo.json")
    steps = [_cli("list")]
    steps += [_cli("table", name) for name in ("table3", "table4", "table5", "table6")]
    steps += [_cli("--csv", f"{workdir}/table3.csv", "table", "table3")]
    steps += [_cli("bounds")]
    steps += [
        _cli("distortion", "--scheme", scheme, "--q", "1", "2")
        for scheme in ("baseline", "frc", "mols", "ramanujan", "random")
    ]
    steps += [_cli("ablation", name, "--processes", "1") for name in ("assignment", "aggregator", "scenarios")]
    steps += [_cli("scenario", "list"), _cli("scenario", "replay")]
    steps += [_cli("scenario", "record", "--golden-dir", f"{workdir}/golden")]
    steps += [_cli("scenario", "run", "mols-clean", "--trace-out", f"{workdir}/trace.json")]
    steps += [_cli("scenario", "run", "examples/scenario_mols_alie_faults.json")]
    steps += [_cli("scenario", "run", "examples/scenario_detox_rotating.json")]
    for campaign in campaigns:
        for action in ("expand", "run", "status", "report"):
            steps.append(_cli("campaign", action, campaign, "--processes", "1", "--out", workdir))
    steps += [_cli("--csv", f"{workdir}/report.csv", "campaign", "report", campaigns[0], "--out", workdir)]
    steps += [_cli("figure", f"fig{n}", "--scale", "tiny") for n in range(2, 13)]
    steps += [_script(str(p.relative_to(ROOT))) for p in sorted((ROOT / "examples").glob("*.py"))]
    steps += [_script("benchmarks/e2e/run.py", "--quick", "--out", f"{workdir}/e2e.json")]
    return steps


def _defs(code: types.CodeType, path: str):
    """Every named function nested in a module's code object."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if "<" not in const.co_qualname:
                yield path, const.co_firstlineno, const.co_qualname
            yield from _defs(const, path)


def _is_public(qualname: str) -> bool:
    parts = qualname.split(".")
    return not any(p.startswith("_") and not p.endswith("__") for p in parts)


def _kept() -> set[tuple[str, str]]:
    """``(path, qualname)`` of every public def kept unreached on purpose."""
    entries = (line.partition("#")[0].split() for line in KEPT.read_text().splitlines())
    return {(path, qualname) for path, qualname in filter(None, entries)}


def _oracle_lines() -> list[tuple[int, str]]:
    """``(line number, line)`` of every kept def whose verdict says "test oracle"."""
    return [
        (number, line)
        for number, line in enumerate(KEPT.read_text().splitlines(), start=1)
        if line.partition("#")[0].strip() and "test oracle" in line.partition("#")[2]
    ]


def unreached_defs(steps, src: pathlib.Path = SRC, root: pathlib.Path = ROOT):
    """Run ``steps`` under the profiler and return the defs under ``src`` that
    none of them entered (``path``/``line``/``def``/``public`` dicts, public
    ones first), with ``(path, qualname)`` of every def there.

    A code object is keyed by its file and first line, so the table of defs
    is compiled before the first step runs: a file edited while the steps
    run is still read with the lines its code was loaded with.
    """
    table = []
    for path in sorted(src.rglob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        rel = str(path.relative_to(root))
        for filename, line, qualname in _defs(code, str(path)):
            table.append(((filename, line), rel, qualname))

    entered: set[tuple[str, int]] = set()
    prefix = str(src)

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        for step in steps:
            print(f"# {step.__name__}", file=sys.stderr)
            with contextlib.redirect_stdout(io.StringIO()):
                step()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    unreached = [
        {"path": rel, "line": key[1], "def": qualname, "public": _is_public(qualname)}
        for key, rel, qualname in table
        if key not in entered
    ]
    unreached.sort(key=lambda u: (not u["public"], u["path"], u["line"]))
    return unreached, {(rel, qualname) for _, rel, qualname in table}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", type=pathlib.Path, help="also write the list as JSON")
    args = parser.parse_args(argv)
    listed = KEPT.relative_to(ROOT)
    oracles = _oracle_lines()
    for number, line in oracles:
        print(f"error: {listed}:{number} keeps a test oracle in src/ ({line.strip()}): "
              "move it into tests/", file=sys.stderr)
    if oracles:
        return 1

    with tempfile.TemporaryDirectory() as workdir:
        unreached, existing = unreached_defs(_steps(workdir))
    for u in unreached:
        print(f"{u['path']}:{u['line']} {u['def']}{'' if u['public'] else '  (private)'}")
    print(f"# {len(unreached)} unreached defs, {sum(u['public'] for u in unreached)} public",
          file=sys.stderr)
    if args.json is not None:
        args.json.write_text(json.dumps(unreached, indent=1))

    kept = _kept()
    unlisted = [u for u in unreached if u["public"] and (u["path"], u["def"]) not in kept]
    for u in unlisted:
        print(f"error: {u['path']}:{u['line']} {u['def']} is public and unreached: "
              f"delete it, or list it in {listed} with its verdict", file=sys.stderr)
    gone = sorted(kept - existing)
    for path, qualname in gone:
        print(f"error: {path} {qualname} is listed in {listed} but no longer exists",
              file=sys.stderr)
    return 1 if unlisted or gone else 0


if __name__ == "__main__":
    sys.exit(main())
