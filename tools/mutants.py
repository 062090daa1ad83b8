#!/usr/bin/env python
"""Which tests catch each planted single-stage defect of the round.

    python tools/mutants.py [--check] [-- PYTEST_ARGS]

Every mutant in :data:`MUTANTS` is one text patch of one file under
``src/``: an old snippet that must occur exactly once, and its
replacement.  For each mutant the tree (without ``.git``) is copied into a
temporary directory, the patch is applied to the copy — never to the
working tree — and one pytest process runs the selection there (default
:data:`TIER1`, the tier-1 suite).  Mutants run one after another, after one run
of the selection on an unmutated copy: a test that already fails there
would count as catching every mutant, so the tool stops with status 2.

Without ``--check`` every selected test runs and the table printed is
mutant -> the tests that failed on it (EXPERIMENTS.md, "Mutation table",
records it; ``-- tests/test_reference_round.py`` gives the replay's column,
whose first failing case names the golden and the stage).  ``--check``
stops each run at its first failing test (``pytest -x``) and exits 1 if
any mutant survives, i.e. no test failed.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parents[1]

_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)")

#: the default selection: every tier-1 test file, the reference round's
#: replay first, so ``pytest -x`` stops a mutant it catches in seconds (pytest
#: collects a path given with its directory in directory order, hence the files)
TIER1 = ["tests/test_reference_round.py"] + sorted(
    str(path.relative_to(ROOT))
    for path in (ROOT / "tests").glob("test_*.py")
    if path.name != "test_reference_round.py"
)


@dataclass(frozen=True)
class Mutant:
    """One planted defect: ``old`` -> ``new`` in ``path`` (relative to the root)."""

    name: str
    what: str
    path: str
    old: str
    new: str

    def apply(self, root: pathlib.Path) -> None:
        target = root / self.path
        text = target.read_text()
        if text.count(self.old) != 1:
            raise SystemExit(
                f"mutant {self.name}: {self.path} holds its snippet "
                f"{text.count(self.old)} times, not once; update MUTANTS"
            )
        target.write_text(text.replace(self.old, self.new))


_ATTACK_BLOCK = """\
        byzantine: tuple[int, ...] = ()
        if self.selector is not None:
            byzantine = tuple(sorted(self.selector.select(assignment, iteration, rng)))
        if byzantine:
            tensor.mark_byzantine(byzantine)
            context = AttackContext(
                assignment=assignment,
                byzantine_workers=byzantine,
                honest_matrix=honest_matrix,
                iteration=iteration,
                rng=rng,
            )
            self.attack.apply_tensor(context, tensor)
"""

_FAULT_BLOCK = """\
        events: list[FaultEvent] = []
        for index, injector in enumerate(self.fault_injectors):
            fault_rng = as_generator(derive_seed(seed, "fault", index, injector.kind, iteration))
            events.extend(injector.inject(tensor, FaultContext(assignment, iteration, fault_rng)))
"""

#: the fixed list; EXPERIMENTS.md's table is in this order
MUTANTS = (
    Mutant(
        "vote-threshold",
        "the vote's r' threshold is one lower",
        "src/repro/aggregation/majority.py",
        "won[won < majority_threshold(r)] = 0",
        "won[won < majority_threshold(r) - 1] = 0",
    ),
    Mutant(
        "faults-before-attack",
        "faults are injected before the attack writes its slots",
        "src/repro/training/trainer.py",
        _ATTACK_BLOCK + "\n" + _FAULT_BLOCK,
        _FAULT_BLOCK + "\n" + _ATTACK_BLOCK,
    ),
    Mutant(
        "bulyan-theta",
        "Bulyan's theta is one lower",
        "src/repro/aggregation/bulyan.py",
        "theta = n - 2 * q\n",
        "theta = n - 2 * q - 1\n",
    ),
    Mutant(
        "alie-sign",
        "ALIE's direction is flipped",
        "src/repro/attacks/alie.py",
        "np.multiply(-z, std, out=std)",
        "np.multiply(z, std, out=std)",
    ),
    Mutant(
        "median-lower-middle",
        "an even-n median takes the minimum, not the maximum, below its rank",
        "src/repro/aggregation/median.py",
        "np.maximum(middle[:, 0], lanes[:, j], out=middle[:, 0])",
        "np.minimum(middle[:, 0], lanes[:, j], out=middle[:, 0])",
    ),
    Mutant(
        "fault-stream",
        "faults draw from the attack's stream",
        "src/repro/training/trainer.py",
        'fault_rng = as_generator(derive_seed(seed, "fault", index, injector.kind, iteration))',
        "fault_rng = rng",
    ),
    Mutant(
        "inclusive-deadline",
        "an arrival at the deadline is accepted",
        "src/repro/cluster/events.py",
        "if time >= deadline:",
        "if time > deadline:",
    ),
    Mutant(
        "no-momentum",
        "the step keeps its velocity but steps along the raw gradient",
        "src/repro/nn/optim.py",
        "self._velocity = gradient = np.add(",
        "self._velocity = np.add(",
    ),
    Mutant(
        "early-decay",
        "the learning rate decays one round early",
        "src/repro/nn/optim.py",
        "self.decay ** (iteration // self.period)",
        "self.decay ** ((iteration + 1) // self.period)",
    ),
    Mutant(
        "payload-next-worker",
        "the payload goes to the next worker's slots",
        "src/repro/core/vote_tensor.py",
        "np.isin(self.workers, byz)",
        "np.isin(self.workers, byz + 1)",
    ),
    Mutant(
        "relu-unmasked",
        "the stacked ReLU's backward pass lets every gradient through",
        "src/repro/nn/layers.py",
        "return np.multiply(grad_output, self._take_cache(), out=grad_output)",
        "self._take_cache()\n        return grad_output",
    ),
    Mutant(
        "fang-window",
        "Fang's closed form holds the payload one rank past its block",
        "src/repro/attacks/adaptive.py",
        "at_payload = ~below & (j < position + k)",
        "at_payload = ~below & (j <= position + k)",
    ),
)


def _copy_tree(destination: pathlib.Path) -> None:
    shutil.copytree(
        ROOT,
        destination,
        ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.pyc"),
    )


def run_mutant(mutant: Mutant | None, selection: list[str], first_only: bool) -> list[str]:
    """The ids of the tests that fail with ``mutant`` (none: the tree as it
    is) applied to a copy."""
    name = mutant.name if mutant else "unmutated"
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        tree = pathlib.Path(scratch) / "tree"
        _copy_tree(tree)
        if mutant:
            mutant.apply(tree)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider"]
        command += (["-x"] if first_only else []) + selection
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    failed = [m.group(1) for m in map(_FAILED.match, done.stdout.splitlines()) if m]
    if done.returncode not in (0, 1) or (done.returncode == 1) != bool(failed):
        raise SystemExit(
            f"{name}: pytest exited {done.returncode} without a test "
            f"result to read:\n{done.stdout[-2000:]}{done.stderr[-2000:]}"
        )
    return failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="stop each run at its first failure; exit 1 if a mutant survives")
    parser.add_argument("selection", nargs="*", default=TIER1,
                        help="pytest arguments (after --), default: every tests/test_*.py")
    args = parser.parse_args(argv)
    failed = run_mutant(None, args.selection, first_only=args.check)
    if failed:
        print(f"the unmutated tree fails {', '.join(failed)}; no mutant can be scored")
        return 2
    survivors = []
    for mutant in MUTANTS:
        failed = run_mutant(mutant, args.selection, first_only=args.check)
        if not failed:
            survivors.append(mutant.name)
        verdict = f"caught by {len(failed)}" if failed else "SURVIVED"
        print(f"{mutant.name:22} {verdict:14} {mutant.what}", flush=True)
        if not args.check:
            for test in failed:
                print(f"    {test}", flush=True)
    if survivors:
        print(f"survived: {', '.join(survivors)}")
    return 1 if args.check and survivors else 0


if __name__ == "__main__":
    sys.exit(main())
