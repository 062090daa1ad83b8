"""Content-addressed result store for campaign runs.

Layout, under a root directory (default ``campaign_out/``)::

    campaign_out/<campaign_digest>/
        campaign.json              # the campaign spec that owns this directory
        <scenario_digest>.json     # one ScenarioRecord per completed scenario

Records are addressed by the *scenario spec digest*, so completion survives
renames of the result files' provenance metadata and a re-run of the same
campaign skips every scenario whose record already exists — cheap
resumability.  Editing the campaign (or any scenario it expands to) changes
the digests, which routes the run to fresh paths instead of silently reusing
stale results.  Writes are atomic (temp file + rename) so an interrupted
worker never leaves a half-written record behind.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass
from typing import Any, Mapping

from repro.campaigns.spec import CampaignSpec
from repro.exceptions import ConfigurationError, ReproError
from repro.scenarios.schema import Schema, spec_field

__all__ = ["ScenarioRecord", "ResultStore", "DEFAULT_STORE_ROOT"]

DEFAULT_STORE_ROOT = pathlib.Path("campaign_out")


@dataclass(frozen=True)
class ScenarioRecord(Schema, where="record"):
    """Everything one completed scenario leaves behind, JSON-ready.

    ``summary`` is the flat report row
    (:meth:`~repro.scenarios.runner.ScenarioResult.summary`); ``trace`` is
    the full bit-exact :class:`~repro.scenarios.trace.RunTrace` dict, so a
    stored record can stand in for a live run in any digest comparison.
    """

    scenario: str = spec_field(str, pinned=True)
    spec: Mapping[str, Any] = spec_field(dict, pinned=True)
    spec_digest: str = spec_field(str, pinned=True)
    overrides: Mapping[str, Any] = spec_field(dict, pinned=True)
    summary: Mapping[str, Any] = spec_field(dict, pinned=True)
    trace: Mapping[str, Any] = spec_field(dict, pinned=True)


class ResultStore:
    """One campaign's result directory: ``<root>/<campaign_digest>/``."""

    def __init__(
        self,
        campaign: CampaignSpec,
        root: "pathlib.Path | str | None" = None,
    ) -> None:
        self.campaign = campaign
        self.root = pathlib.Path(root) if root is not None else DEFAULT_STORE_ROOT
        self.directory = self.root / campaign.digest()

    # -- paths ---------------------------------------------------------------
    @property
    def campaign_path(self) -> pathlib.Path:
        return self.directory / "campaign.json"

    def record_path(self, spec_digest: str) -> pathlib.Path:
        return self.directory / f"{spec_digest}.json"

    # -- campaign spec anchoring --------------------------------------------
    def initialize(self) -> None:
        """Create the directory and pin the owning campaign spec.

        A pre-existing ``campaign.json`` must match this campaign exactly —
        a mismatch means a digest collision or manual tampering, both of
        which should fail loudly rather than mix results.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.campaign_path.exists():
            existing = _read_json(self.campaign_path)
            if existing != self.campaign.to_dict():
                raise ReproError(
                    f"{self.campaign_path} holds a different campaign than "
                    f"{self.campaign.name!r}; refusing to mix results"
                )
            return
        _write_json_atomic(self.campaign_path, self.campaign.to_dict())

    # -- records -------------------------------------------------------------
    def completed_digests(self) -> set[str]:
        """Spec digests of every scenario with a stored record."""
        if not self.directory.is_dir():
            return set()
        return {
            path.stem
            for path in self.directory.glob("*.json")
            if path.name != "campaign.json"
        }

    def load(self, spec_digest: str) -> "ScenarioRecord | None":
        """Load the record for a scenario digest, or ``None`` if absent."""
        path = self.record_path(spec_digest)
        if not path.exists():
            return None
        try:
            record = ScenarioRecord.from_dict(_read_json(path))
        except ConfigurationError as exc:
            raise ReproError(f"{path} is not a scenario record: {exc}") from exc
        if record.spec_digest != spec_digest:
            raise ReproError(
                f"{path} claims spec digest {record.spec_digest}, expected "
                f"{spec_digest}; the store is corrupt"
            )
        return record

    def save(self, record: ScenarioRecord) -> pathlib.Path:
        """Atomically persist one scenario record; returns its path."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.record_path(record.spec_digest)
        _write_json_atomic(path, record.to_dict())
        return path


def _read_json(path: pathlib.Path) -> Any:
    try:
        return json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read {path}: {exc}") from exc


def _write_json_atomic(path: pathlib.Path, data: Any) -> None:
    tmp = path.with_suffix(f".tmp-{os.getpid()}")
    try:
        tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise ReproError(f"cannot write {path}: {exc}") from exc
