"""Structured round traces and bit-exact comparison.

A :class:`RoundTrace` condenses one training round into digests of every
stage of the data path — the raw vote tensor, the post-vote matrix, the
aggregated gradient and the updated parameters — plus the realized adversary
and fault activity, the files the vote actually let through distorted and
the files it left undecided.
A :class:`RunTrace` is the per-run sequence of round traces together with
the spec digest, the evaluated loss/accuracy series and final metrics.

Digests are 16-hex-char SHA-256 prefixes (:func:`array_digest`).  The
aggregate and the parameters digest their raw bytes in the run's own width,
shape included (and a dtype tag when that width is not float64).  The vote
tensor and the winners digest from the canonical ``(f, r)`` content-id
matrix the vote computed, the ``f`` honest base rows and each distinct
payload row once, and for the winners an ``(n, 2)`` table of references
into those ids — an injective encoding of the round's content, so two runs
match **iff** they are bit-identical at every stage of every round, at a
hash cost of about ``f`` rows instead of ``f·r``.  Floats that travel
through JSON are serialized with ``float.hex()`` to survive the round-trip
exactly.  This is what makes the golden-trace suite a refactoring safety
net: any change that perturbs a single bit anywhere in the round path shows
up as a digest mismatch with a precise (round, stage) location.

Every :class:`RunTrace` pins its ``format_version``, which follows the
run's working dtype (:func:`format_version_for`): a float64 run writes
**trace format v2**, whose digests hash float64 bytes, and a float32 run
**trace format v3**, whose digests hash float32 bytes.  A trace of another
format (v1 traces carry none) is refused by name when loaded; a replayed
run whose format is not its golden's (a float32 golden recorded as v2)
fails on the format, before any round is compared — never as a digest
mismatch.

:func:`unexplained_files` is the one accounting of the paper's guarantee
over a round's trace: the files whose vote outcome neither the graph's
prediction nor the round's faults explain.  The runner calls it on every
round it records.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.core.backend import DEFAULT_DTYPE, resolve_dtype
from repro.core.distortion import distorted_files
from repro.exceptions import ConfigurationError, ReproError
from repro.graphs.bipartite import BipartiteAssignment
from repro.scenarios.schema import Schema, spec_field
from repro.utils.digest import array_digest

__all__ = [
    "FORMAT_VERSION",
    "NATIVE_WIDTH_FORMAT_VERSION",
    "format_version_for",
    "format_version_of",
    "array_digest",
    "hex_float",
    "EvaluationTrace",
    "RoundTrace",
    "RunTrace",
    "TraceMismatch",
    "GuaranteeViolation",
    "unexplained_files",
]

#: the trace format of a float64 run: digests of float64 bytes
FORMAT_VERSION = 2

#: the trace format of a float32 run: digests of its float32 bytes, tagged
#: with the dtype (a v2 float32 trace digested their float64 widening)
NATIVE_WIDTH_FORMAT_VERSION = 3


def hex_float(value: float) -> str:
    """Bit-exact JSON representation of a float (NaN-safe)."""
    value = float(value)
    return "nan" if value != value else value.hex()


def _unhex(text: str) -> float:
    return float("nan") if text == "nan" else float.fromhex(text)


class TraceMismatch(ReproError):
    """A replayed run diverged from its golden trace."""


class GuaranteeViolation(ReproError):
    """A round's vote outcome is not explained by the graph or its faults."""


def format_version_for(dtype: object = None) -> int:
    """The trace format a run of working ``dtype`` writes (``None``: float64)."""
    if resolve_dtype(dtype) == DEFAULT_DTYPE:
        return FORMAT_VERSION
    return NATIVE_WIDTH_FORMAT_VERSION


def format_version_of(trace: Mapping[str, Any]) -> Any:
    """The ``format_version`` of a trace dict; a v1 trace has none (``1``)."""
    return trace.get("format_version", 1)


@dataclass(frozen=True)
class RoundTrace(Schema, where="round"):
    """Digest view of one training round.

    Attributes
    ----------
    iteration:
        Zero-based round index.
    q:
        Number of Byzantine workers this round.
    byzantine:
        The compromised worker set.
    num_distorted:
        Files the adversary's placement can corrupt: the graph prediction
        ``distorted_files(assignment, byzantine)``, whatever the vote did.
    votes_digest, winners_digest, aggregate_digest, params_digest:
        Stage digests: the ``(f, r, d)`` vote tensor after attack and
        faults, the post-vote matrix (both from the vote's content ids),
        the aggregated gradient, and the global parameters after the
        optimizer step.
    mean_loss_hex:
        The round's mean file loss, hex-encoded for exact JSON round-trip.
    round_time_hex:
        Simulated round duration (straggler model), hex-encoded.
    faults:
        JSON-ready fault event records of the round.
    realised_distorted:
        Files whose post-vote row is not bit-equal to their honest row — a
        winner with a nonzero content id — read off the vote's winner
        references.  A file that abstained has no winner, so it is not
        listed.
    abstained:
        Files the vote left undecided: no class of ``r'`` accepted copies
        agreed.  Left out of the JSON when empty.
    """

    iteration: int = spec_field(int, pinned=True)
    q: int = spec_field(int, pinned=True)
    byzantine: tuple[int, ...] = spec_field((int,), pinned=True)
    num_distorted: int = spec_field(int, pinned=True)
    votes_digest: str = spec_field(str, pinned=True)
    winners_digest: str = spec_field(str, pinned=True)
    aggregate_digest: str = spec_field(str, pinned=True)
    params_digest: str = spec_field(str, pinned=True)
    mean_loss_hex: str = spec_field(str, pinned=True)
    round_time_hex: str = spec_field(str, pinned=True, default=hex_float(0.0))
    faults: tuple[Mapping[str, Any], ...] = spec_field((dict,), pinned=True, default=())
    realised_distorted: tuple[int, ...] = spec_field((int,), pinned=True, default=())
    abstained: tuple[int, ...] = spec_field((int,), default=())

    @property
    def round_time(self) -> float:
        return _unhex(self.round_time_hex)


def unexplained_files(
    round_trace: RoundTrace, assignment: BipartiteAssignment
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(realised, abstained)``: the files of a round nothing explains.

    ``realised`` lists the files the vote let through distorted although the
    graph did not predict them (fewer than r' of their copies Byzantine) and
    no copy of theirs was corrupted in flight: ``zero`` and ``scale``
    corruption write identical bytes into every corrupted copy of a file, so
    r' of them form a class that can win.  ``abstained`` lists the files the
    vote left undecided although none of their copies was Byzantine, lost
    (its worker dropped, or the message ``late``) or corrupted.  Both are
    empty on every round of a correct engine.  The prediction is recomputed
    with :func:`~repro.core.distortion.distorted_files`; a trace whose
    ``num_distorted`` is not its size raises :class:`GuaranteeViolation`.
    """
    predicted = set(distorted_files(assignment, round_trace.byzantine).tolist())
    if len(predicted) != round_trace.num_distorted:
        raise GuaranteeViolation(
            f"round {round_trace.iteration}: num_distorted {round_trace.num_distorted} "
            f"!= the {len(predicted)} files the graph predicts"
        )
    corrupted: set[int] = set()
    lost: set[int] = set()
    for fault in round_trace.faults:
        if fault["kind"] == "corruption":
            corrupted.add(fault["file"])
        elif fault["kind"] == "late":
            lost.add(fault["file"])
        elif fault["dropped"]:
            lost.update(assignment.files_of_worker(fault["worker"]))
    touched = {i for w in round_trace.byzantine for i in assignment.files_of_worker(w)}
    forged = predicted | corrupted
    undecidable = touched | lost | corrupted
    return (
        tuple(i for i in round_trace.realised_distorted if i not in forged),
        tuple(i for i in round_trace.abstained if i not in undecidable),
    )


@dataclass(frozen=True)
class EvaluationTrace(Schema, where="evaluation"):
    """One evaluated round's test loss and accuracy, hex-encoded."""

    iteration: int = spec_field(int, pinned=True)
    test_loss_hex: str = spec_field(str, pinned=True)
    test_accuracy_hex: str = spec_field(str, pinned=True)


@dataclass
class RunTrace(Schema, where="trace"):
    """The full trace of one scenario run.

    ``spec_digest`` ties the trace to the exact scenario definition;
    ``evaluations`` is the test loss/accuracy series a figure curve is drawn
    from; ``final_params_digest`` and ``final_accuracy_hex`` summarize where
    the run ended.  It is the one record of a run:
    :meth:`~repro.scenarios.runner.ScenarioRunner.run` writes it round by
    round, and the float series the reports print are views of its hex
    fields.
    """

    scenario: str = spec_field(str, pinned=True)
    spec_digest: str = spec_field(str, pinned=True)
    format_version: int = spec_field(int, pinned=True, default=FORMAT_VERSION)
    rounds: list[RoundTrace] = spec_field([RoundTrace], pinned=True, default_factory=list)
    evaluations: list[EvaluationTrace] = spec_field(
        [EvaluationTrace], pinned=True, default_factory=list
    )
    final_params_digest: str = spec_field(str, pinned=True, default="")
    final_accuracy_hex: str = spec_field(str, pinned=True, default=hex_float(float("nan")))

    def append(self, round_trace: RoundTrace) -> None:
        if self.rounds and round_trace.iteration <= self.rounds[-1].iteration:
            raise ReproError("round traces must be appended in increasing order")
        self.rounds.append(round_trace)

    @property
    def total_simulated_time(self) -> float:
        """Sum of the per-round simulated durations (straggler model)."""
        return float(sum(r.round_time for r in self.rounds))

    # -- float views ---------------------------------------------------------
    @property
    def train_losses(self) -> np.ndarray:
        """Mean file loss per round."""
        return np.array([_unhex(r.mean_loss_hex) for r in self.rounds], dtype=DEFAULT_DTYPE)

    def accuracy_series(self) -> tuple[np.ndarray, np.ndarray]:
        """``(iterations, accuracies)`` of the evaluated rounds: the series
        plotted in the paper's Figures 2–11."""
        return (
            np.array([e.iteration for e in self.evaluations], dtype=np.int64),
            np.array([_unhex(e.test_accuracy_hex) for e in self.evaluations], dtype=DEFAULT_DTYPE),
        )

    @property
    def final_accuracy(self) -> float:
        """Test accuracy where the run ended (NaN if never evaluated)."""
        return _unhex(self.final_accuracy_hex)

    @property
    def best_accuracy(self) -> float:
        """Best evaluated test accuracy (NaN if never evaluated)."""
        _, accuracies = self.accuracy_series()
        return float(accuracies.max()) if accuracies.size else float("nan")

    def mean_accuracy(self) -> float:
        """Mean of the evaluated accuracies (NaN if never evaluated)."""
        _, accuracies = self.accuracy_series()
        return float(accuracies.mean()) if accuracies.size else float("nan")

    # -- serialization -------------------------------------------------------
    @classmethod
    def from_json_file(cls, path: "str | pathlib.Path") -> "RunTrace":
        """Load a trace written by :meth:`write_json_file`, of either format
        this build writes (v2 or v3)."""
        path = pathlib.Path(path)
        readable = (FORMAT_VERSION, NATIVE_WIDTH_FORMAT_VERSION)
        # ConfigurationError is the strict loader's: well-formed JSON of the
        # wrong shape (a list at the root, a non-integer ``iteration``, ...).
        try:
            data = json.loads(path.read_text())
            if isinstance(data, Mapping) and format_version_of(data) not in readable:
                raise ReproError(
                    f"cannot load trace {path}: it is trace format "
                    f"{format_version_of(data)!r}, this build reads format "
                    f"{FORMAT_VERSION} or {NATIVE_WIDTH_FORMAT_VERSION}; re-record "
                    "it with `repro scenario record`"
                )
            return cls.from_dict(data)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, ConfigurationError) as exc:
            raise ReproError(f"cannot load trace {path}: {exc}") from exc

    def write_json_file(self, path: "str | pathlib.Path") -> None:
        path = pathlib.Path(path)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(self.to_json() + "\n")
        except OSError as exc:
            raise ReproError(f"cannot write trace {path}: {exc}") from exc

    # -- comparison ----------------------------------------------------------
    def assert_matches(self, golden: "RunTrace") -> None:
        """Raise :class:`TraceMismatch` at the first divergence from ``golden``.

        Every field is compared.  The error message names the round (or the
        evaluated iteration) and the first differing field, so a regression
        points straight at the layer that changed behaviour.
        """
        if self.spec_digest != golden.spec_digest:
            raise TraceMismatch(
                f"scenario {self.scenario!r}: spec digest {self.spec_digest} != "
                f"golden {golden.spec_digest} — the scenario definition changed; "
                "re-record the golden trace if that was intentional"
            )
        if self.format_version != golden.format_version:
            raise TraceMismatch(
                f"scenario {self.scenario!r}: trace format {self.format_version} "
                f"!= golden {golden.format_version}"
            )
        for what, mine, theirs in (
            ("round", self.rounds, golden.rounds),
            ("evaluation", self.evaluations, golden.evaluations),
        ):
            if len(mine) != len(theirs):
                raise TraceMismatch(
                    f"scenario {self.scenario!r}: {len(mine)} {what}s vs golden {len(theirs)}"
                )
            for one, other in zip(mine, theirs):
                for field in dataclasses.fields(one):
                    if getattr(one, field.name) != getattr(other, field.name):
                        raise TraceMismatch(
                            f"scenario {self.scenario!r} {what} {one.iteration}: "
                            f"{field.name} diverged ({getattr(one, field.name)!r} != "
                            f"golden {getattr(other, field.name)!r})"
                        )
        if self.final_params_digest != golden.final_params_digest:
            raise TraceMismatch(
                f"scenario {self.scenario!r}: final params digest diverged"
            )
        if self.final_accuracy_hex != golden.final_accuracy_hex:
            raise TraceMismatch(
                f"scenario {self.scenario!r}: final accuracy diverged "
                f"({_unhex(self.final_accuracy_hex)} != {_unhex(golden.final_accuracy_hex)})"
            )
