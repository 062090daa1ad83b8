"""Process-parallel campaign execution.

The executor fans the expanded scenarios of a
:class:`~repro.campaigns.spec.CampaignSpec` out across a
``ProcessPoolExecutor``.  Because every scenario run is a pure function of
its spec — :class:`~repro.scenarios.runner.ScenarioRunner` builds all
components fresh, and every seed is pinned inside the spec — the parallel
run produces **bit-identical** :class:`~repro.scenarios.trace.RunTrace`\\ s
to serial execution: parallelism changes wall-clock time and nothing else.

With a :class:`~repro.campaigns.store.ResultStore` attached, scenarios whose
records already exist are skipped and served from disk, making interrupted
campaigns resumable at per-scenario granularity.

:func:`run_specs` is the scheme-agnostic core (a list of ``ScenarioSpec``\\ s
in, a list of :class:`~repro.campaigns.store.ScenarioRecord`\\ s out, in
order); the scenario-matrix ablation table and the parallel benchmarks drive
it directly without a campaign spec.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.campaigns.spec import CampaignScenario, CampaignSpec
from repro.campaigns.store import ResultStore, ScenarioRecord
from repro.exceptions import ConfigurationError
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec

__all__ = ["execute_spec", "run_specs", "CampaignStatus", "CampaignRunResult", "CampaignExecutor"]


def execute_spec(
    spec: ScenarioSpec, overrides: "Mapping[str, Any] | None" = None
) -> ScenarioRecord:
    """Run one scenario in-process and package the result as a record."""
    result = run_scenario(spec)
    return ScenarioRecord(
        scenario=spec.name,
        spec=spec.to_dict(),
        spec_digest=spec.digest(),
        overrides=dict(overrides or {}),
        summary=result.summary(),
        trace=result.trace.to_dict(),
    )


def _execute_payload(payload: tuple[dict[str, Any], dict[str, Any]]) -> dict[str, Any]:
    """Pool worker entry point: plain dicts in, plain dicts out (picklable)."""
    spec_dict, overrides = payload
    return execute_spec(ScenarioSpec.from_dict(spec_dict), overrides).to_dict()


def _pool_context() -> "multiprocessing.context.BaseContext":
    """Prefer ``fork`` (cheap, inherits the warm interpreter); fall back to
    the platform default where fork is unavailable."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def run_specs(
    specs: Sequence[ScenarioSpec],
    processes: int = 0,
    overrides: "Sequence[Mapping[str, Any]] | None" = None,
    on_record: "Callable[[ScenarioRecord], None] | None" = None,
) -> list[ScenarioRecord]:
    """Run scenarios and return their records in input order.

    ``processes <= 1`` runs serially in-process; larger values fan out over
    a ``ProcessPoolExecutor`` of that many workers.  Both paths produce
    bit-identical traces — parallelism only changes wall-clock time.

    ``on_record`` is invoked once per record *as it completes* (completion
    order, not input order); the executor hooks the result store in here so
    an interrupted run keeps every scenario that finished before the
    interrupt.
    """
    if processes < 0:
        raise ConfigurationError(f"processes must be non-negative, got {processes}")
    if overrides is not None and len(overrides) != len(specs):
        raise ConfigurationError(
            f"{len(overrides)} override mappings for {len(specs)} specs"
        )
    per_spec = overrides if overrides is not None else [{} for _ in specs]
    if processes <= 1 or len(specs) <= 1:
        records = []
        for spec, ov in zip(specs, per_spec):
            record = execute_spec(spec, ov)
            if on_record is not None:
                on_record(record)
            records.append(record)
        return records
    workers = min(processes, len(specs))
    results: list["ScenarioRecord | None"] = [None] * len(specs)
    with ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context()) as pool:
        futures = {
            pool.submit(_execute_payload, (spec.to_dict(), dict(ov))): i
            for i, (spec, ov) in enumerate(zip(specs, per_spec))
        }
        for future in as_completed(futures):
            record = ScenarioRecord.from_dict(future.result())
            if on_record is not None:
                on_record(record)
            results[futures[future]] = record
    return results  # type: ignore[return-value]  # every slot is filled above


@dataclass(frozen=True)
class CampaignStatus:
    """Completion state of a campaign against its store."""

    campaign: str
    digest: str
    completed: tuple[str, ...]
    pending: tuple[str, ...]

    @property
    def total(self) -> int:
        return len(self.completed) + len(self.pending)


@dataclass
class CampaignRunResult:
    """Outcome of :meth:`CampaignExecutor.run`.

    ``records`` follow expansion order regardless of which scenarios were
    freshly run and which were served from the store.
    """

    campaign: CampaignSpec
    scenarios: list[CampaignScenario]
    records: list[ScenarioRecord]
    ran: int = 0
    skipped: int = 0
    store_dir: "str | None" = None

    def summary_rows(self) -> list[dict[str, Any]]:
        """One flat report row per completed scenario: axis labels + summary."""
        # Canonical column order (store records round-trip through sorted
        # JSON, so the stored dict order cannot be trusted for display).  A
        # record stored before a column existed shows it blank.
        preferred = (
            "rounds",
            "final_accuracy",
            "mean_predicted_distortion",
            "mean_realised_distortion",
            "max_q",
            "dropped_contributions",
            "corrupted_messages",
            "simulated_time",
        )
        rows: list[dict[str, Any]] = []
        keys = self.campaign.axis_keys()
        for scenario, record in zip(self.scenarios, self.records):
            if record is None:
                continue
            row: dict[str, Any] = {"scenario": record.scenario}
            for axis_path, label in scenario.labels.items():
                row[keys[axis_path]] = label
            hidden = ("scenario", "final_params_digest")
            for name in preferred:
                row[name] = record.summary.get(name, "")
            for name, value in record.summary.items():
                if name not in row and name not in hidden:
                    row[name] = value
            row["seed"] = scenario.spec.seed
            rows.append(row)
        return rows


class CampaignExecutor:
    """Expand a campaign and drive its scenarios to completion.

    Parameters
    ----------
    campaign:
        The sweep definition.
    store:
        Optional result store; when given, completed scenarios are skipped
        on re-runs and fresh records are persisted as they finish.
    processes:
        Worker processes for :func:`run_specs` (``<= 1`` = serial).
    """

    def __init__(
        self,
        campaign: CampaignSpec,
        store: "ResultStore | None" = None,
        processes: int = 0,
    ) -> None:
        self.campaign = campaign
        self.store = store
        self.processes = processes
        self.scenarios = campaign.expand()

    def status(self) -> CampaignStatus:
        """Which expanded scenarios already have stored records."""
        done = self.store.completed_digests() if self.store is not None else set()
        completed = tuple(
            s.spec.name for s in self.scenarios if s.spec.digest() in done
        )
        pending = tuple(
            s.spec.name for s in self.scenarios if s.spec.digest() not in done
        )
        return CampaignStatus(
            campaign=self.campaign.name,
            digest=self.campaign.digest(),
            completed=completed,
            pending=pending,
        )

    def run(self) -> CampaignRunResult:
        """Run every pending scenario; return all records in expansion order."""
        if self.store is not None:
            self.store.initialize()
            done = self.store.completed_digests()
        else:
            done = set()
        pending = [s for s in self.scenarios if s.spec.digest() not in done]
        # Persist every record the moment it completes: an interrupted run
        # (Ctrl-C, crashed box) keeps all finished scenarios and the re-run
        # picks up exactly where it stopped.
        fresh = run_specs(
            [s.spec for s in pending],
            processes=self.processes,
            overrides=[s.overrides for s in pending],
            on_record=self.store.save if self.store is not None else None,
        )
        by_digest: dict[str, ScenarioRecord] = {
            record.spec_digest: record for record in fresh
        }
        records: list[ScenarioRecord] = []
        for scenario in self.scenarios:
            digest = scenario.spec.digest()
            record = by_digest.get(digest)
            if record is None:
                record = self.store.load(digest)  # type: ignore[union-attr]
            records.append(record)
        return CampaignRunResult(
            campaign=self.campaign,
            scenarios=self.scenarios,
            records=records,
            ran=len(fresh),
            skipped=len(self.scenarios) - len(fresh),
            store_dir=str(self.store.directory) if self.store is not None else None,
        )
