"""Format-migration planning: outrunning media and codec obsolescence.

The paper's preservation levels say *what* to keep; this module keeps
it **readable**.  :mod:`repro.sounds.formats` knows each sound format's
production era, so a format whose era closes before the planning
horizon (magnetic tape ends in 2000, ATRAC in 2013) is *at risk*: the
bytes may be intact in the vault while the means to decode them
disappear.

The planner flags at-risk record payloads, plans **level-preserving**
migrations (the derived artifact inherits the source's preservation
level and the governing
:class:`~repro.core.preservation.PreservationPolicy` — migrating must
never silently demote Table I capability), and executes them through
the replica group: read the source under quorum, rewrite the format
field, store the derivative content-addressed.

Every executed migration is provenance: the derived artifact
``wasDerivedFrom`` the source artifact — both named by CAS digest, so
the link survives any amount of replica churn — and the migration
process records which format era forced the move.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

from repro.archive.clock import TickClock
from repro.archive.replicas import ReplicaGroup
from repro.core.preservation import PreservationPolicy
from repro.errors import MigrationError
from repro.hashing import canonical_json
from repro.provenance.opm import OPMGraph
from repro.provenance.repository import ProvenanceRepository
from repro.sounds.formats import SOUND_FORMATS, Era
from repro.workflow.trace import ProcessorRun, WorkflowTrace

__all__ = ["MigrationStep", "MigrationPlan", "MigrationReport",
           "FormatMigrationPlanner", "at_risk_formats",
           "MIGRATION_WORKFLOW"]

MIGRATION_WORKFLOW = "format_migration"


def at_risk_formats(horizon_year: int) -> list[Era]:
    """Formats whose production era closes before ``horizon_year`` —
    decodable today, plausibly not for the policy's whole lifetime."""
    return [era for era in SOUND_FORMATS if era.last_year < horizon_year]


class MigrationStep:
    """One planned migration of one archived payload."""

    __slots__ = ("object_id", "source_digest", "from_format", "to_format",
                 "level")

    def __init__(self, object_id: str, source_digest: str,
                 from_format: str, to_format: str, level: int) -> None:
        self.object_id = object_id
        self.source_digest = source_digest
        self.from_format = from_format
        self.to_format = to_format
        self.level = level

    def __repr__(self) -> str:
        return (
            f"MigrationStep({self.object_id}: {self.from_format} -> "
            f"{self.to_format}, level {self.level})"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "object_id": self.object_id,
            "source_digest": self.source_digest,
            "from_format": self.from_format,
            "to_format": self.to_format,
            "level": self.level,
        }


class MigrationPlan:
    """Every step the planner decided on, plus the policy behind it."""

    def __init__(self, steps: Sequence[MigrationStep],
                 policy: PreservationPolicy, horizon_year: int,
                 target_format: str) -> None:
        self.steps = list(steps)
        self.policy = policy
        self.horizon_year = horizon_year
        self.target_format = target_format

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self) -> str:
        return (
            f"MigrationPlan({len(self.steps)} steps -> "
            f"{self.target_format!r}, horizon {self.horizon_year})"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "horizon_year": self.horizon_year,
            "target_format": self.target_format,
            "policy": repr(self.policy),
            "steps": [step.to_dict() for step in self.steps],
        }


class MigrationReport:
    """What an executed plan produced."""

    def __init__(self, run_id: str | None,
                 migrations: Sequence[dict[str, Any]]) -> None:
        self.run_id = run_id
        self.migrations = list(migrations)

    def __len__(self) -> int:
        return len(self.migrations)

    def __repr__(self) -> str:
        return f"MigrationReport({self.run_id}, {len(self.migrations)})"

    def to_dict(self) -> dict[str, Any]:
        return {"run_id": self.run_id, "migrations": list(self.migrations)}


class FormatMigrationPlanner:
    """Plans and executes era-driven format migrations.

    Parameters
    ----------
    group:
        The replica group holding the payloads.
    provenance:
        Where migration runs are persisted as OPM graphs.
    clock:
        ``now() -> datetime``; deterministic tick clock by default.
    """

    #: the OPM agent controlling migrations
    agent_id = "agent/migration-planner"

    def __init__(self, group: ReplicaGroup,
                 provenance: ProvenanceRepository | None = None,
                 clock: Any | None = None) -> None:
        self.group = group
        # `is not None`: an empty (falsy) repository must still be used
        self.provenance = (provenance if provenance is not None
                           else ProvenanceRepository())
        self.clock = clock or TickClock()
        self._runs = 0

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def plan(self, entries: Sequence[Mapping[str, Any]],
             policy: PreservationPolicy,
             horizon_year: int = 2014,
             target_format: str = "WAV") -> MigrationPlan:
        """Decide which of ``entries`` need migrating.

        ``entries`` are manifest-shaped mappings with ``object_id``,
        ``digest``, ``format`` and ``level`` keys (the vault passes its
        record manifest rows directly).
        """
        target = next((era for era in SOUND_FORMATS
                       if era.name == target_format), None)
        if target is None:
            raise MigrationError(f"unknown target format {target_format!r}")
        if target.last_year < horizon_year:
            raise MigrationError(
                f"target {target_format!r} is itself at risk by "
                f"{horizon_year} (era ends {target.last_year})"
            )
        risky = {era.name for era in at_risk_formats(horizon_year)}
        steps = [
            MigrationStep(entry["object_id"], entry["digest"],
                          entry["format"], target_format,
                          int(entry["level"]))
            for entry in entries
            if entry.get("format") in risky
        ]
        return MigrationPlan(steps, policy, horizon_year, target_format)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(self, plan: MigrationPlan) -> MigrationReport:
        """Run every step; returns the report (with its provenance run
        id) — an empty plan records nothing."""
        if not plan.steps:
            return MigrationReport(None, [])
        self._runs += 1
        run_id = f"migration/run-{self._runs:04d}"
        started = self.clock.now()

        trace = WorkflowTrace(run_id, MIGRATION_WORKFLOW, started)
        trace.inputs = {"plan": plan.to_dict()}
        graph = OPMGraph(run_id)
        graph.add_agent(self.agent_id, label="format migration planner")

        migrations: list[dict[str, Any]] = []
        for index, step in enumerate(plan.steps, start=1):
            payload = self.group.read(step.source_digest)
            document = json.loads(payload)
            if not isinstance(document, dict):
                raise MigrationError(
                    f"{step.object_id}: payload is not a record document"
                )
            document["sound_file_format"] = step.to_format
            derived_payload = canonical_json(document)
            derived_digest = self.group.put(derived_payload)

            process_id = f"{run_id}/migrate-{index:04d}"
            source_id = f"cas:{step.source_digest}"
            derived_id = f"cas:{derived_digest}"
            graph.add_process(process_id, label="format migration",
                              annotations={
                                  "object_id": step.object_id,
                                  "from_format": step.from_format,
                                  "to_format": step.to_format,
                                  "level": step.level,
                                  "lifetime_years":
                                      plan.policy.lifetime_years,
                              })
            graph.was_controlled_by(process_id, self.agent_id,
                                    role="planner")
            graph.add_artifact(source_id, label=source_id,
                               annotations={"format": step.from_format})
            graph.add_artifact(derived_id, label=derived_id,
                               annotations={"format": step.to_format,
                                            "level": step.level})
            graph.used(process_id, source_id, role="source")
            graph.was_generated_by(derived_id, process_id, role="derived")
            graph.was_derived_from(derived_id, source_id)

            step_started = self.clock.now()
            trace.record_run(ProcessorRun(
                f"migrate:{step.object_id}", "format_migration",
                step_started, self.clock.now(),
            ))
            migrations.append({
                "object_id": step.object_id,
                "source_digest": step.source_digest,
                "derived_digest": derived_digest,
                "from_format": step.from_format,
                "to_format": step.to_format,
                "level": step.level,
            })

        report = MigrationReport(run_id, migrations)
        trace.outputs = report.to_dict()
        trace.finish(self.clock.now(), "completed")
        self.provenance.store_run(trace, graph)
        return report
