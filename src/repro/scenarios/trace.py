"""Structured round traces and bit-exact comparison.

A :class:`RoundTrace` condenses one training round into digests of every
stage of the data path — the raw vote tensor, the post-vote matrix, the
aggregated gradient and the updated parameters — plus the realized adversary
and fault activity and the files the vote actually let through distorted.
A :class:`RunTrace` is the per-run sequence of round traces together with
the spec digest, the evaluated loss/accuracy series and final metrics.

Digests are 16-hex-char SHA-256 prefixes (:func:`array_digest`).  The
aggregate and the parameters digest their raw float64 bytes, shape
included.  The vote tensor and the winners digest in **trace format v2**:
the canonical ``(f, r)`` content-id matrix the vote computed, the ``f``
honest base rows and each distinct payload row once, and for the winners an
``(n, 2)`` table of references into those ids — an injective encoding of
the round's content, so two runs match **iff** they are bit-identical at
every stage of every round, at a hash cost of about ``f`` rows instead of
``f·r``.  Floats that travel through JSON are serialized with
``float.hex()`` to survive the round-trip exactly.  This is what makes the
golden-trace suite a refactoring safety net: any change that perturbs a
single bit anywhere in the round path shows up as a digest mismatch with a
precise (round, stage) location.

:data:`FORMAT_VERSION` is pinned in every :class:`RunTrace`; a trace of
another format (v1 traces carry none) is refused by name when loaded.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass
from typing import Any, Mapping

from repro.exceptions import ConfigurationError, ReproError
from repro.scenarios.schema import Schema, spec_field
from repro.utils.digest import array_digest

__all__ = [
    "FORMAT_VERSION",
    "format_version_of",
    "array_digest",
    "hex_float",
    "EvaluationTrace",
    "RoundTrace",
    "RunTrace",
    "TraceMismatch",
]

#: the trace format this build writes and reads
FORMAT_VERSION = 2


def hex_float(value: float) -> str:
    """Bit-exact JSON representation of a float (NaN-safe)."""
    value = float(value)
    return "nan" if value != value else value.hex()


def _unhex(text: str) -> float:
    return float("nan") if text == "nan" else float.fromhex(text)


class TraceMismatch(ReproError):
    """A replayed run diverged from its golden trace."""


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
        faults, the post-vote matrix (both trace format v2), the aggregated
        gradient, and the global parameters after the optimizer step.
    mean_loss_hex:
        The round's mean file loss, hex-encoded for exact JSON round-trip.
    round_time_hex:
        Simulated round duration (straggler model), hex-encoded.
    faults:
        JSON-ready fault event records of the round.
    realised_distorted:
        Files whose post-vote row is not bit-equal to their honest row — a
        winner with a nonzero content id, or the zero row of a file with no
        arrived copy — read off the vote's winner references.
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

    @property
    def round_time(self) -> float:
        return _unhex(self.round_time_hex)


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
    the run ended.
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

    # -- serialization -------------------------------------------------------
    @classmethod
    def from_json_file(cls, path: "str | pathlib.Path") -> "RunTrace":
        path = pathlib.Path(path)
        # ConfigurationError is the strict loader's: well-formed JSON of the
        # wrong shape (a list at the root, a non-integer ``iteration``, ...).
        try:
            data = json.loads(path.read_text())
            if isinstance(data, Mapping) and format_version_of(data) != FORMAT_VERSION:
                raise ReproError(
                    f"cannot load trace {path}: it is trace format "
                    f"{format_version_of(data)!r}, this build reads format "
                    f"{FORMAT_VERSION}; re-record it with `repro scenario record`"
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

        The error message names the round and the first differing stage so a
        regression points straight at the layer that changed behaviour.
        """
        if self.spec_digest != golden.spec_digest:
            raise TraceMismatch(
                f"scenario {self.scenario!r}: spec digest {self.spec_digest} != "
                f"golden {golden.spec_digest} — the scenario definition changed; "
                "re-record the golden trace if that was intentional"
            )
        if len(self.rounds) != len(golden.rounds):
            raise TraceMismatch(
                f"scenario {self.scenario!r}: {len(self.rounds)} rounds vs "
                f"golden {len(golden.rounds)}"
            )
        for mine, theirs in zip(self.rounds, golden.rounds):
            for stage in (field.name for field in dataclasses.fields(RoundTrace)):
                if getattr(mine, stage) != getattr(theirs, stage):
                    raise TraceMismatch(
                        f"scenario {self.scenario!r} round {mine.iteration}: "
                        f"{stage} diverged ({getattr(mine, stage)!r} != golden "
                        f"{getattr(theirs, stage)!r})"
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
