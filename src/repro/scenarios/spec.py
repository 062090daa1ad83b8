"""Declarative scenario specification.

A :class:`ScenarioSpec` pins down *everything* that determines a simulated
training run — cluster geometry, aggregation pipeline, dataset, model,
training schedule, adversary (attack + schedule + selection), benign fault
models, uplink compression and the seed — as plain data.  Every section is a
:class:`~repro.scenarios.schema.Schema`: each field is declared once, with
its JSON kind, and ``from_dict`` / ``to_dict`` / ``to_json`` / ``digest`` are
inherited from the one strict loader and the one emitter there.

**Canonical form.**  ``to_dict`` emits a field when it is declared
``pinned=True`` or when it differs from its default, and nothing else — so
a scenario that does not use a later-added section or knob (``runtime``,
``topology``, ``partition``, ``dtype``, ``block_size``, …) serializes, and
hashes, exactly as it did before that field existed.  The digest is the
sha256 of that form; traces embed it, so a replay against an edited
scenario fails loudly instead of comparing apples to oranges.

The spec layer deliberately knows nothing about the simulator: the
:mod:`~repro.scenarios.runner` turns a spec into live components via the
assignment / attack / aggregation / compression registries.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Any

from repro.core.backend import SUPPORTED_DTYPES
from repro.exceptions import ConfigurationError
from repro.scenarios.schema import Schema, spec_field

__all__ = [
    "ClusterSpec",
    "PipelineSpec",
    "PartitionSpec",
    "DataSpec",
    "ModelSpec",
    "TrainingSpec",
    "ScheduleSpec",
    "AttackSpec",
    "FaultSpec",
    "CompressionSpec",
    "RuntimeSpec",
    "TopologySpec",
    "ScenarioSpec",
]


@dataclass(frozen=True)
class ClusterSpec(Schema, where="cluster"):
    """Which assignment scheme builds the worker/file graph.

    ``params`` is forwarded verbatim to the assignment registry, e.g.
    ``{"load": 5, "replication": 3}`` for MOLS or ``{"m": 5, "s": 5}`` for
    Ramanujan.
    """

    scheme: str = spec_field(str, pinned=True, default="mols")
    params: dict[str, Any] = spec_field(dict, default_factory=dict)


@dataclass(frozen=True)
class PipelineSpec(Schema, where="pipeline"):
    """Aggregation pipeline: kind + second-stage robust rule.

    ``kind`` is ``"byzshield"``, ``"detox"``, ``"draco"`` or ``"vanilla"``;
    ``aggregator``/``aggregator_params`` name the registry rule (ignored by
    DRACO, which always averages); ``vote_tolerance`` loosens the majority
    vote's exact-equality matching.  ``block_size`` streams the vote kernels
    in coordinate blocks of that width (``None``, the default, leaves the
    width to the kernels).
    """

    kind: str = spec_field(str, pinned=True, default="byzshield")
    aggregator: str = spec_field(str, pinned=True, default="median")
    aggregator_params: dict[str, Any] = spec_field(dict, default_factory=dict)
    vote_tolerance: float = spec_field(float, default=0.0)
    block_size: int | None = spec_field(int, default=None)

    def __post_init__(self) -> None:
        if self.kind not in ("byzshield", "detox", "draco", "vanilla"):
            raise ConfigurationError(
                f"unknown pipeline kind {self.kind!r}; expected byzshield, "
                "detox, draco or vanilla"
            )
        if not self.vote_tolerance >= 0:  # also NaN
            raise ConfigurationError(
                f"vote_tolerance must be non-negative, got {self.vote_tolerance}"
            )
        if self.block_size is not None and self.block_size < 1:
            raise ConfigurationError(
                f"block_size must be a positive integer or omitted, got "
                f"{self.block_size}"
            )


@dataclass(frozen=True)
class PartitionSpec(Schema, where="partition"):
    """Non-IID file partition (see :mod:`repro.data.batching`).

    ``kind`` is ``"dirichlet"`` (label skew, Hsu et al. 2019) or
    ``"quantity_skew"`` (Dirichlet shard sizes); ``alpha`` is the Dirichlet
    concentration (small = strong skew) and ``min_per_shard`` the floor
    every file's shard is topped up to.
    """

    kind: str = spec_field(str, pinned=True, default="dirichlet")
    alpha: float = spec_field(float, pinned=True, default=0.5)
    min_per_shard: int = spec_field(int, default=1)

    def __post_init__(self) -> None:
        if self.kind not in ("dirichlet", "quantity_skew"):
            raise ConfigurationError(
                f"unknown partition kind {self.kind!r}; expected 'dirichlet' "
                "or 'quantity_skew'"
            )
        if not self.alpha > 0:  # also NaN
            raise ConfigurationError(
                f"partition alpha must be positive, got {self.alpha}"
            )
        if self.min_per_shard < 0:
            raise ConfigurationError(
                f"partition min_per_shard must be non-negative, got "
                f"{self.min_per_shard}"
            )


@dataclass(frozen=True)
class DataSpec(Schema, where="data"):
    """Synthetic dataset parameters (Gaussian mixture or synthetic images).

    ``partition`` optionally shards the training set non-IID across files;
    ``None`` (default) keeps the paper's IID batching.
    """

    kind: str = spec_field(str, pinned=True, default="gaussian")
    num_train: int = spec_field(int, pinned=True, default=300)
    num_test: int = spec_field(int, pinned=True, default=100)
    num_classes: int = spec_field(int, pinned=True, default=4)
    dim: int = spec_field(int, pinned=True, default=12)
    separation: float = spec_field(float, pinned=True, default=3.0)
    image_size: int = spec_field(int, pinned=True, default=8)
    channels: int = spec_field(int, pinned=True, default=3)
    partition: PartitionSpec | None = spec_field(PartitionSpec, default=None)

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "images"):
            raise ConfigurationError(
                f"unknown data kind {self.kind!r}; expected 'gaussian' or 'images'"
            )
        for name in ("num_train", "num_test", "num_classes", "dim"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")


@dataclass(frozen=True)
class ModelSpec(Schema, where="model"):
    """MLP head trained on the synthetic substrate."""

    hidden: tuple[int, ...] = spec_field((int,), pinned=True, default=(16,))


@dataclass(frozen=True)
class TrainingSpec(Schema, where="training"):
    """Optimization schedule of the run."""

    batch_size: int = spec_field(int, pinned=True, default=75)
    num_iterations: int = spec_field(int, pinned=True, default=4)
    learning_rate: float = spec_field(float, pinned=True, default=0.05)
    lr_decay: float = spec_field(float, pinned=True, default=0.96)
    lr_period: int = spec_field(int, pinned=True, default=15)
    momentum: float = spec_field(float, pinned=True, default=0.9)
    weight_decay: float = spec_field(float, pinned=True, default=0.0)
    eval_every: int = spec_field(int, pinned=True, default=2)


@dataclass(frozen=True)
class ScheduleSpec(Schema, where="schedule"):
    """Adversary schedule (see :class:`repro.attacks.schedules.AdversarySchedule`)."""

    kind: str = spec_field(str, pinned=True, default="static")
    q: int = spec_field(int, pinned=True, default=0)
    q_end: int | None = spec_field(int, default=None)
    period: int = spec_field(int, default=1)
    stride: int = spec_field(int, default=1)


@dataclass(frozen=True)
class AttackSpec(Schema, where="attack"):
    """The adversary: payload generator + worker selection + budget schedule."""

    name: str = spec_field(str, pinned=True)
    params: dict[str, Any] = spec_field(dict, default_factory=dict)
    selection: str = spec_field(str, pinned=True, default="omniscient")
    schedule: ScheduleSpec = spec_field(ScheduleSpec, pinned=True, default_factory=ScheduleSpec)

    def __post_init__(self) -> None:
        if self.selection not in ("omniscient", "random", "rotating"):
            raise ConfigurationError(
                f"unknown selection {self.selection!r}; expected omniscient, "
                "random or rotating"
            )


@dataclass(frozen=True)
class FaultSpec(Schema, where="fault"):
    """One benign fault model; ``params`` match the injector's constructor.

    ``kind`` is ``"stragglers"``, ``"dropout"`` or ``"corruption"``.
    """

    kind: str = spec_field(str, pinned=True)
    params: dict[str, Any] = spec_field(dict, default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("stragglers", "dropout", "corruption"):
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected stragglers, "
                "dropout or corruption"
            )


@dataclass(frozen=True)
class CompressionSpec(Schema, where="compression"):
    """Uplink gradient compression applied worker-side (once per file)."""

    name: str = spec_field(str, pinned=True)
    params: dict[str, Any] = spec_field(dict, default_factory=dict)


@dataclass(frozen=True)
class RuntimeSpec(Schema, where="runtime"):
    """How the PS collects a round's messages.

    The default (no deadline, no quorum) is the lockstep synchronous round.
    Setting ``deadline`` and/or ``quorum`` switches the run to the
    event-driven engine (:mod:`repro.cluster.events`).

    Attributes
    ----------
    deadline:
        Round deadline in simulated seconds, exclusive (an arrival at
        exactly the deadline is late).  ``inf`` (serialized as the string
        ``"inf"``) waits for every message that will ever arrive — the
        sync-equivalent event mode.  ``None`` = synchronous unless a quorum
        is set.
    quorum:
        Per-file close threshold: a file stops accepting copies once this
        many arrived.  ``None`` waits for all ``r`` copies.
    partial:
        Vote each file over its accepted copies only instead of counting
        missing slots as zero votes.  Requires an event-driven runtime.
    """

    deadline: float | None = spec_field(float, allow_inf=True, default=None)
    quorum: int | None = spec_field(int, default=None)
    partial: bool = spec_field(bool, default=False)

    def __post_init__(self) -> None:
        if self.deadline is not None and not self.deadline > 0.0:  # also NaN
            raise ConfigurationError(
                f"runtime deadline must be positive (or inf), got {self.deadline}"
            )
        if self.quorum is not None and self.quorum < 1:
            raise ConfigurationError(
                f"runtime quorum must be >= 1, got {self.quorum}"
            )
        if self.partial and not self.is_event:
            raise ConfigurationError(
                "partial aggregation requires an event-driven runtime "
                "(set deadline and/or quorum)"
            )

    @property
    def is_event(self) -> bool:
        """True when the scenario runs on the event-driven engine."""
        return self.deadline is not None or self.quorum is not None


@dataclass(frozen=True)
class TopologySpec(Schema, where="topology"):
    """Two-level aggregation topology (hierarchical majority voting).

    ``groups`` partitions the workers into that many contiguous, balanced
    voting groups; ``q_group``/``q_root`` are the per-level tolerated-
    adversary budgets carried by :class:`~repro.cluster.topology.
    GroupTopology`.  Scenarios without this section run the flat vote.
    """

    groups: int = spec_field(int, pinned=True)
    q_group: int = spec_field(int, default=0)
    q_root: int = spec_field(int, default=0)

    def __post_init__(self) -> None:
        if self.groups < 1:
            raise ConfigurationError(
                f"topology groups must be >= 1, got {self.groups}"
            )
        if self.q_group < 0 or self.q_root < 0:
            raise ConfigurationError(
                f"topology budgets must be non-negative, got "
                f"q_group={self.q_group}, q_root={self.q_root}"
            )


@dataclass(frozen=True)
class ScenarioSpec(Schema, where="scenario"):
    """A complete, reproducible description of one simulated training run."""

    name: str = spec_field(str, pinned=True)
    seed: int = spec_field(int, pinned=True, default=0)
    cluster: ClusterSpec = spec_field(ClusterSpec, pinned=True, default_factory=ClusterSpec)
    pipeline: PipelineSpec = spec_field(PipelineSpec, pinned=True, default_factory=PipelineSpec)
    data: DataSpec = spec_field(DataSpec, pinned=True, default_factory=DataSpec)
    model: ModelSpec = spec_field(ModelSpec, pinned=True, default_factory=ModelSpec)
    training: TrainingSpec = spec_field(TrainingSpec, pinned=True, default_factory=TrainingSpec)
    attack: AttackSpec | None = spec_field(AttackSpec, default=None)
    faults: tuple[FaultSpec, ...] = spec_field((FaultSpec,), default=())
    compression: CompressionSpec | None = spec_field(CompressionSpec, default=None)
    runtime: RuntimeSpec = spec_field(RuntimeSpec, default_factory=RuntimeSpec)
    topology: TopologySpec | None = spec_field(TopologySpec, default=None)
    dtype: str = spec_field(str, default="float64")
    description: str = spec_field(str, default="")

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario requires a non-empty name")
        if self.dtype not in SUPPORTED_DTYPES:
            raise ConfigurationError(
                f"unsupported scenario dtype {self.dtype!r}; "
                f"expected one of {sorted(SUPPORTED_DTYPES)}"
            )

    @classmethod
    def from_json_file(cls, path: "str | pathlib.Path") -> "ScenarioSpec":
        path = pathlib.Path(path)
        try:
            data = json.loads(path.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot load scenario spec {path}: {exc}") from exc
        return cls.from_dict(data)
