"""Declarative scenario engine: specs, fault-injected runs, golden traces.

Public surface:

* :class:`~repro.scenarios.spec.ScenarioSpec` — the declarative run
  description (dict/JSON round-trip, stable digest);
* :class:`~repro.scenarios.schema.Schema` /
  :func:`~repro.scenarios.schema.spec_field` — the field table every
  JSON-facing dataclass is declared in (one strict loader, one emitter);
* :class:`~repro.scenarios.runner.ScenarioRunner` /
  :func:`~repro.scenarios.runner.run_scenario` — execute a spec through the
  VoteTensor fast path and record a bit-exact trace, checking each round
  against the paper's guarantee
  (:func:`~repro.scenarios.trace.unexplained_files`);
* :mod:`~repro.scenarios.catalog` — the named scenario matrix;
* :mod:`~repro.scenarios.golden` — golden-trace capture and replay.
"""

from repro.scenarios.catalog import all_scenarios, get_scenario, scenario_names
from repro.scenarios.golden import (
    default_golden_dir,
    golden_path,
    record_goldens,
    replay_golden,
)
from repro.scenarios.runner import ScenarioResult, ScenarioRunner, run_scenario
from repro.scenarios.schema import Schema, spec_field
from repro.scenarios.spec import (
    AttackSpec,
    ClusterSpec,
    CompressionSpec,
    DataSpec,
    FaultSpec,
    ModelSpec,
    PartitionSpec,
    PipelineSpec,
    RuntimeSpec,
    ScenarioSpec,
    ScheduleSpec,
    TrainingSpec,
)
from repro.scenarios.trace import (
    EvaluationTrace,
    GuaranteeViolation,
    RoundTrace,
    RunTrace,
    TraceMismatch,
    array_digest,
    unexplained_files,
)

__all__ = [
    "AttackSpec",
    "ClusterSpec",
    "CompressionSpec",
    "DataSpec",
    "FaultSpec",
    "ModelSpec",
    "PartitionSpec",
    "PipelineSpec",
    "RuntimeSpec",
    "ScenarioSpec",
    "ScheduleSpec",
    "TrainingSpec",
    "Schema",
    "spec_field",
    "ScenarioResult",
    "ScenarioRunner",
    "run_scenario",
    "EvaluationTrace",
    "RoundTrace",
    "RunTrace",
    "TraceMismatch",
    "GuaranteeViolation",
    "unexplained_files",
    "array_digest",
    "all_scenarios",
    "get_scenario",
    "scenario_names",
    "default_golden_dir",
    "golden_path",
    "record_goldens",
    "replay_golden",
]
