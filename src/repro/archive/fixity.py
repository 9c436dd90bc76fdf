"""Fixity auditing: scheduled digest re-verification, as provenance.

A :class:`FixityAuditor` sweeps every object of a
:class:`~repro.archive.replicas.ReplicaGroup`, re-hashes each replica's
bytes against the content digest, and reports what it found.  The
preservation literature's demand — *who verified what, when, against
which digest* — is met by recording **every sweep as an OPM graph** in
the :class:`~repro.provenance.repository.ProvenanceRepository`:

* the sweep is a ``Process`` controlled by the auditor ``Agent``;
* every checked object is an ``Artifact`` named ``cas:<digest>``
  (the digest *is* the identity, so the claim is auditable later);
* a ``used`` edge per object carries the verdict in its role
  (``verified`` / ``flagged``), and the artifact's annotations record
  the per-store states.

Repairs are provenance too (:meth:`FixityAuditor.record_repair`): each
rebuilt replica becomes a ``replica:<store>/<digest>`` artifact
``wasGeneratedBy`` the repair process and ``wasDerivedFrom`` the
logical object — so a reader of the repository can reconstruct the
whole custody chain: ingested, verified, rotted, repaired, verified
again.

Corruption *injection* for drills lives on the store
(:meth:`~repro.archive.cas.ContentAddressedStore.corrupt`); the auditor
only ever detects.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.archive.clock import TickClock
from repro.archive.replicas import RepairAction, ReplicaGroup, ReplicaStatus
from repro.provenance.opm import OPMGraph
from repro.provenance.repository import ProvenanceRepository
from repro.workflow.trace import ProcessorRun, WorkflowTrace

__all__ = ["AuditReport", "FixityAuditor",
           "AUDIT_WORKFLOW", "REPAIR_WORKFLOW"]

AUDIT_WORKFLOW = "fixity_audit"
REPAIR_WORKFLOW = "replica_repair"


class AuditReport:
    """What one sweep established."""

    def __init__(self, run_id: str,
                 statuses: Sequence[ReplicaStatus],
                 bytes_audited: int) -> None:
        self.run_id = run_id
        self.statuses = list(statuses)
        self.bytes_audited = bytes_audited

    @property
    def objects_checked(self) -> int:
        return len(self.statuses)

    @property
    def replicas_checked(self) -> int:
        return sum(len(status.states) for status in self.statuses)

    @property
    def corrupt(self) -> list[tuple[str, str]]:
        """``(digest, store)`` pairs whose bytes no longer verify."""
        return [
            (status.digest, store)
            for status in self.statuses
            for store in status.corrupt_stores
        ]

    @property
    def missing(self) -> list[tuple[str, str]]:
        return [
            (status.digest, store)
            for status in self.statuses
            for store in status.missing_stores
        ]

    @property
    def damaged_digests(self) -> list[str]:
        return sorted({
            status.digest for status in self.statuses if not status.intact
        })

    @property
    def healthy(self) -> bool:
        return not self.damaged_digests

    def __repr__(self) -> str:
        return (
            f"AuditReport({self.run_id}, {self.objects_checked} objects, "
            f"{len(self.corrupt)} corrupt, {len(self.missing)} missing)"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "objects_checked": self.objects_checked,
            "replicas_checked": self.replicas_checked,
            "bytes_audited": self.bytes_audited,
            "corrupt": [list(pair) for pair in self.corrupt],
            "missing": [list(pair) for pair in self.missing],
            "healthy": self.healthy,
        }


class FixityAuditor:
    """Sweeps a replica group and records each sweep as provenance.

    Parameters
    ----------
    group:
        The replica group under audit.
    provenance:
        Where audit/repair runs are persisted as OPM graphs.
    clock:
        ``now() -> datetime``; a fresh deterministic
        :class:`~repro.archive.clock.TickClock` by default.
    """

    #: the OPM agent controlling sweeps and repairs
    agent_id = "agent/fixity-auditor"

    def __init__(self, group: ReplicaGroup,
                 provenance: ProvenanceRepository | None = None,
                 clock: Any | None = None) -> None:
        self.group = group
        # `is not None`: an empty (falsy) repository must still be used
        self.provenance = (provenance if provenance is not None
                           else ProvenanceRepository())
        self.clock = clock or TickClock()
        self._sweeps = 0
        self._repairs = 0

    # ------------------------------------------------------------------
    # auditing
    # ------------------------------------------------------------------

    def sweep(self, digests: Sequence[str] | None = None) -> AuditReport:
        """Re-verify every replica of every object (or of ``digests``),
        and persist the sweep as an OPM provenance run."""
        self._sweeps += 1
        run_id = f"fixity/sweep-{self._sweeps:04d}"
        started = self.clock.now()
        catalog = list(digests) if digests is not None \
            else self.group.digests()

        statuses: list[ReplicaStatus] = []
        bytes_audited = 0
        for digest in catalog:
            status = self.group.replica_status(digest)
            statuses.append(status)
            for member in self.group.stores:
                if member.exists(digest):
                    bytes_audited += member.stat(digest).size_bytes
        report = AuditReport(run_id, statuses, bytes_audited)

        trace = WorkflowTrace(run_id, AUDIT_WORKFLOW, started)
        trace.inputs = {"objects": len(catalog),
                        "stores": [s.name for s in self.group.stores]}
        for member in self.group.stores:
            store_started = self.clock.now()
            trace.record_run(ProcessorRun(
                f"verify:{member.name}", "fixity_sweep",
                store_started, self.clock.now(),
            ))
        finished = self.clock.now()
        trace.outputs = report.to_dict()
        trace.finish(finished,
                     "completed" if report.healthy else "degraded")

        self.provenance.store_run(trace, self._audit_graph(report, started,
                                                           finished))
        return report

    def _audit_graph(self, report: AuditReport, started: Any,
                     finished: Any) -> OPMGraph:
        graph = OPMGraph(report.run_id)
        process_id = f"{report.run_id}/sweep"
        graph.add_process(process_id, label="fixity audit sweep",
                          annotations={
                              "started": str(started),
                              "finished": str(finished),
                              "objects_checked": report.objects_checked,
                              "replicas_checked": report.replicas_checked,
                              "bytes_audited": report.bytes_audited,
                              "corrupt_found": len(report.corrupt),
                              "missing_found": len(report.missing),
                          })
        graph.add_agent(self.agent_id, label="fixity auditor")
        graph.was_controlled_by(process_id, self.agent_id, role="auditor")
        for status in report.statuses:
            artifact_id = f"cas:{status.digest}"
            graph.add_artifact(artifact_id, label=artifact_id,
                               annotations={"fixity": dict(status.states)})
            graph.used(process_id, artifact_id,
                       role="verified" if status.intact else "flagged")
        return graph

    # ------------------------------------------------------------------
    # repair provenance
    # ------------------------------------------------------------------

    def record_repair(self, actions: Sequence[RepairAction]) -> str | None:
        """Persist one repair run covering ``actions``; returns its run
        id (``None`` when there was nothing to record)."""
        if not actions:
            return None
        self._repairs += 1
        run_id = f"fixity/repair-{self._repairs:04d}"
        started = self.clock.now()

        trace = WorkflowTrace(run_id, REPAIR_WORKFLOW, started)
        trace.inputs = {"replicas_to_repair": len(actions)}
        graph = OPMGraph(run_id)
        process_id = f"{run_id}/repair"
        graph.add_process(process_id, label="replica repair",
                          annotations={
                              "replicas_repaired": len(actions),
                          })
        graph.add_agent(self.agent_id, label="fixity auditor")
        graph.was_controlled_by(process_id, self.agent_id, role="repairer")
        for action in actions:
            source_id = f"cas:{action.digest}"
            graph.add_artifact(source_id, label=source_id)
            graph.used(process_id, source_id,
                       role=f"healthy-source:{action.source}")
            copy_id = f"replica:{action.store}/{action.digest}"
            graph.add_artifact(copy_id, label=copy_id,
                               annotations={"was": action.reason,
                                            "attempts": action.attempts})
            graph.was_generated_by(copy_id, process_id, role="restored")
            graph.was_derived_from(copy_id, source_id)
            run_started = self.clock.now()
            trace.record_run(ProcessorRun(
                f"restore:{action.store}", "replica_repair",
                run_started, self.clock.now(),
            ))
        trace.outputs = {"actions": [a.to_dict() for a in actions]}
        trace.finish(self.clock.now(), "completed")
        self.provenance.store_run(trace, graph)
        return run_id
