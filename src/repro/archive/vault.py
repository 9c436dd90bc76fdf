"""The preservation vault: the paper's promise made executable.

:class:`PreservationVault` is the facade over the archive subsystem —
the durable half of Table I.  ``core.preservation`` decides *what* a
level keeps; the vault actually keeps it:

* **ingest** — build the :class:`PreservationPackage` for a collection
  at a level, then store the package and every record payload
  content-addressed, N-way replicated, with a manifest row per logical
  object on the storage engine;
* **verify** — run a fixity sweep over every replica; the sweep itself
  is recorded as OPM provenance (*who verified what, when, against
  which digest*);
* **repair** — rebuild corrupt/missing replicas from healthy ones
  (quorum reads, retry/backoff), also recorded as provenance;
* **migrate** — flag at-risk formats by production era and re-encode
  under the collection's :class:`PreservationPolicy`, linking each
  derivative to its source digest with ``wasDerivedFrom``;
* **status** — one structured view of objects, replicas, damage and
  provenance runs.

All four paths are instrumented through
:mod:`repro.telemetry` (``vault_*`` counters/gauges/histograms plus
``vault.*`` spans), so audit and repair activity shows up in
``repro stats`` alongside workflow and storage telemetry.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.archive.cas import ContentAddressedStore
from repro.archive.clock import TickClock
from repro.archive.fixity import AuditReport, FixityAuditor
from repro.archive.migration import (
    FormatMigrationPlanner,
    MigrationReport,
    at_risk_formats,
)
from repro.archive.replicas import RepairAction, ReplicaGroup
from repro.core.preservation import (
    PreservationLevel,
    PreservationPolicy,
    archive_collection,
)
from repro.errors import ArchiveError
from repro.hashing import canonical_json, sha256_hex
from repro.provenance.repository import ProvenanceRepository
from repro.storage import Column, Database, TableSchema, col
from repro.storage import column_types as ct
from repro.telemetry import Telemetry, get_telemetry

__all__ = ["PreservationVault", "IngestReport", "RepairReport"]

_MANIFEST = "vault_manifest"

#: histogram buckets for archived object sizes (bytes)
_SIZE_BUCKETS = (64, 256, 1024, 4096, 16_384, 65_536, 262_144,
                 1_048_576, 4_194_304)


class IngestReport:
    """What one ingest stored."""

    def __init__(self, collection: str, level: PreservationLevel,
                 package_digest: str, records: int, new_objects: int,
                 deduplicated: int, logical_bytes: int) -> None:
        self.collection = collection
        self.level = level
        self.package_digest = package_digest
        self.records = records
        self.new_objects = new_objects
        self.deduplicated = deduplicated
        self.logical_bytes = logical_bytes

    def __repr__(self) -> str:
        return (
            f"IngestReport({self.collection}, level={int(self.level)}, "
            f"{self.new_objects} new, {self.deduplicated} deduplicated)"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "collection": self.collection,
            "level": int(self.level),
            "package_digest": self.package_digest,
            "records": self.records,
            "new_objects": self.new_objects,
            "deduplicated": self.deduplicated,
            "logical_bytes": self.logical_bytes,
        }


class RepairReport:
    """What one repair pass rebuilt."""

    def __init__(self, run_id: str | None,
                 actions: Sequence[RepairAction]) -> None:
        self.run_id = run_id
        self.actions = list(actions)

    def __len__(self) -> int:
        return len(self.actions)

    def __repr__(self) -> str:
        return f"RepairReport({self.run_id}, {len(self.actions)} actions)"

    def to_dict(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "actions": [action.to_dict() for action in self.actions],
        }


class PreservationVault:
    """Content-addressed, replicated, audited long-term storage.

    Parameters
    ----------
    name:
        Vault identity; store names derive from it (``<name>-r<i>``).
    replicas:
        Member store count (>= 1).
    provenance:
        Repository receiving audit/repair/migration runs; a fresh one
        by default (pass the system repository to make preservation
        provenance queryable next to workflow provenance).
    telemetry:
        Metrics/span sink; the process-wide default when omitted.
    catalog_database:
        Backing database for the manifest (in-memory by default; pass a
        journaled one for durability).
    federation:
        Optional :class:`~repro.archive.federation.FederatedVault`.
        When attached, every ingested payload is *also* placed across
        the federated site topology under its level's redundancy
        scheme (erasure for bulk levels, full replicas for the
        analysis levels), so off-site durability rides along with the
        local replica group.
    """

    def __init__(self, name: str = "vault", replicas: int = 3,
                 provenance: ProvenanceRepository | None = None,
                 telemetry: Telemetry | None = None,
                 catalog_database: Database | None = None,
                 federation: Any | None = None) -> None:
        if replicas < 1:
            raise ArchiveError("a vault needs at least one replica")
        self.name = name
        self.clock = TickClock()
        self.group = ReplicaGroup(
            [ContentAddressedStore(f"{name}-r{i}") for i in range(replicas)])
        # `is not None`: an empty (falsy) repository must still be used
        self.provenance = (provenance if provenance is not None
                           else ProvenanceRepository())
        self.telemetry = telemetry or get_telemetry()
        self.auditor = FixityAuditor(self.group, self.provenance,
                                     clock=self.clock)
        self.planner = FormatMigrationPlanner(self.group, self.provenance,
                                              clock=self.clock)
        self.federation = federation
        self.catalog = catalog_database or Database(f"{name}-catalog")
        if not self.catalog.has_table(_MANIFEST):
            self.catalog.create_table(TableSchema(_MANIFEST, [
                Column("object_id", ct.TEXT),
                Column("digest", ct.TEXT, nullable=False),
                Column("kind", ct.TEXT, nullable=False),
                Column("collection", ct.TEXT, nullable=False),
                Column("level", ct.INTEGER, nullable=False),
                Column("format", ct.TEXT),
                Column("source_digest", ct.TEXT),
                Column("superseded", ct.INTEGER, nullable=False),
            ], primary_key="object_id"))
            self.catalog.create_index(_MANIFEST, "kind", "hash")
        self._last_audit: AuditReport | None = None

    def __repr__(self) -> str:
        return (
            f"PreservationVault({self.name}, "
            f"{len(self.group.stores)} replicas, "
            f"{self.object_count()} objects)"
        )

    # ------------------------------------------------------------------
    # manifest helpers
    # ------------------------------------------------------------------

    def manifest(self, kind: str | None = None,
                 include_superseded: bool = False) -> list[dict[str, Any]]:
        query = self.catalog.query(_MANIFEST)
        if kind is not None:
            query = query.where(col("kind") == kind)
        if not include_superseded:
            query = query.where(col("superseded") == 0)
        return query.order_by("object_id").all()

    def object_count(self) -> int:
        return len(self.group.digests())

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------

    def ingest(self, collection: Any, level: PreservationLevel,
               workflows: Any | None = None,
               provenance_source: ProvenanceRepository | None = None,
               documentation: str = "") -> IngestReport:
        """Archive ``collection`` at ``level``: one package object plus
        one payload object per record *the level preserves*, replicated
        and manifested.

        Record payloads follow Table I: level 1 archives the package
        (documentation + schema) alone, level 2 adds each record's
        simplified projection, levels 3–4 the full metadata rows — the
        per-record payloads are taken from the package itself, so the
        vault stores exactly what the level promises, nothing more.
        """
        level = PreservationLevel(level)
        metrics = self.telemetry.metrics
        with self.telemetry.tracer.span("vault.ingest", clock=self.clock,
                                        collection=collection.name,
                                        level=int(level)):
            package = archive_collection(
                collection, level, workflows=workflows,
                provenance=provenance_source,
                documentation=documentation,
            )
            new_objects = deduplicated = logical_bytes = 0

            def _store(payload: str, object_id: str, kind: str,
                       fmt: str | None) -> str:
                nonlocal new_objects, deduplicated, logical_bytes
                known = self.group.stores[0].exists(sha256_hex(payload))
                digest = self.group.put(payload)
                size = len(payload.encode("utf-8"))
                if known:
                    deduplicated += 1
                    metrics.counter("vault_objects_deduplicated_total").inc()
                else:
                    new_objects += 1
                    logical_bytes += size
                    metrics.counter("vault_objects_ingested_total",
                                    kind=kind).inc()
                    metrics.counter("vault_bytes_ingested_total").inc(size)
                    metrics.histogram("vault_object_bytes",
                                      buckets=_SIZE_BUCKETS).observe(size)
                self.catalog.upsert(_MANIFEST, {
                    "object_id": object_id,
                    "digest": digest,
                    "kind": kind,
                    "collection": collection.name,
                    "level": int(level),
                    "format": fmt,
                    "source_digest": None,
                    "superseded": 0,
                })
                if self.federation is not None:
                    self.federation.store(payload, level=int(level))
                return digest

            package_digest = _store(
                canonical_json({"subject": package.subject,
                                "level": int(level),
                                "contents": package.contents}),
                f"package/{collection.name}/level{int(level)}",
                "package", None,
            )
            rows = package.contents.get(
                "records", package.contents.get("simplified_records", ()))
            records = 0
            for row in rows:
                records += 1
                _store(canonical_json(row),
                       f"record/{collection.name}/{row['record_id']}",
                       "record", row.get("sound_file_format"))
            self._refresh_lag_gauges()
            return IngestReport(collection.name, level, package_digest,
                                records, new_objects, deduplicated,
                                logical_bytes)

    # ------------------------------------------------------------------
    # verify / repair
    # ------------------------------------------------------------------

    def verify(self) -> AuditReport:
        """Fixity-sweep every replica of every object; the sweep lands
        in the provenance repository as an OPM run."""
        metrics = self.telemetry.metrics
        with self.telemetry.tracer.span("vault.audit", clock=self.clock):
            report = self.auditor.sweep()
        metrics.counter("vault_audit_sweeps_total").inc()
        metrics.counter("vault_objects_audited_total").inc(
            report.objects_checked)
        metrics.counter("vault_bytes_audited_total").inc(
            report.bytes_audited)
        if report.corrupt:
            metrics.counter("vault_corruptions_found_total",
                            reason="corrupt").inc(len(report.corrupt))
        if report.missing:
            metrics.counter("vault_corruptions_found_total",
                            reason="missing").inc(len(report.missing))
        self._refresh_lag_gauges()
        self._last_audit = report
        return report

    def repair(self, report: AuditReport | None = None) -> RepairReport:
        """Rebuild every replica the given (or last, or a fresh) audit
        found damaged; the repair lands in provenance as an OPM run."""
        report = report or self._last_audit or self.verify()
        metrics = self.telemetry.metrics
        actions: list[RepairAction] = []
        with self.telemetry.tracer.span("vault.repair", clock=self.clock):
            for digest in report.damaged_digests:
                actions.extend(self.group.repair(digest))
            run_id = self.auditor.record_repair(actions)
        for action in actions:
            metrics.counter("vault_corruptions_repaired_total",
                            reason=action.reason).inc()
        self._refresh_lag_gauges()
        return RepairReport(run_id, actions)

    # ------------------------------------------------------------------
    # migration
    # ------------------------------------------------------------------

    def migrate(self, policy: PreservationPolicy | None = None,
                horizon_year: int = 2014,
                target_format: str = "WAV") -> MigrationReport:
        """Migrate every at-risk record payload; derivatives join the
        manifest, sources are marked superseded, provenance links each
        derivative back to its source digest."""
        metrics = self.telemetry.metrics
        with self.telemetry.tracer.span("vault.migrate", clock=self.clock,
                                        horizon=horizon_year,
                                        target=target_format):
            entries = [
                {"object_id": row["object_id"], "digest": row["digest"],
                 "format": row["format"], "level": row["level"]}
                for row in self.manifest(kind="record")
            ]
            plan = self.planner.plan(
                entries,
                policy or PreservationPolicy(
                    PreservationLevel.ANALYSIS_LEVEL),
                horizon_year=horizon_year,
                target_format=target_format,
            )
            report = self.planner.execute(plan)
            for migration in report.migrations:
                source_row = self.catalog.find(_MANIFEST,
                                               migration["object_id"])
                collection = source_row["collection"] if source_row \
                    else self.name
                self.catalog.upsert(_MANIFEST, {
                    "object_id": (f"{migration['object_id']}"
                                  f"/migrated-"
                                  f"{migration['to_format'].lower()}"),
                    "digest": migration["derived_digest"],
                    "kind": "record",
                    "collection": collection,
                    "level": migration["level"],
                    "format": migration["to_format"],
                    "source_digest": migration["source_digest"],
                    "superseded": 0,
                })
                if source_row is not None:
                    rowid = self.catalog.rowid_for(
                        _MANIFEST, migration["object_id"])
                    self.catalog.update(_MANIFEST, rowid,
                                        {"superseded": 1})
                metrics.counter(
                    "vault_migrations_total",
                    source=migration["from_format"],
                    target=migration["to_format"],
                ).inc()
        self._refresh_lag_gauges()
        return report

    def at_risk(self, horizon_year: int = 2014) -> list[dict[str, Any]]:
        """Current (non-superseded) record objects in at-risk formats."""
        risky = {era.name for era in at_risk_formats(horizon_year)}
        return [row for row in self.manifest(kind="record")
                if row["format"] in risky]

    # ------------------------------------------------------------------
    # drills
    # ------------------------------------------------------------------

    def inject_corruption(self, store_index: int = 0) -> str:
        """Corrupt one replica of the first record object (the first
        object when no record is archived) — the test/drill hook behind
        the audit story."""
        rows = self.manifest(kind="record") or self.manifest()
        if not rows:
            raise ArchiveError("nothing archived to corrupt")
        digest = rows[0]["digest"]
        self.group.stores[store_index].corrupt(digest)
        return digest

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------

    def _refresh_lag_gauges(self) -> None:
        for store_name, lag in self.group.replica_lag().items():
            self.telemetry.metrics.gauge("vault_replica_lag",
                                         store=store_name).set(lag)

    def lint(self) -> Any:
        """Run the static vault rules and return the analysis report.

        Complements :meth:`verify`: the fixity sweep re-hashes payloads,
        this pass flags structural trouble (sub-quorum objects, manifest
        drift, at-risk formats without migration lineage) plus schema
        defects in the manifest catalog, without reading a byte.
        """
        from repro.analysis import Analyzer

        analyzer = Analyzer(telemetry=self.telemetry)
        report = analyzer.analyze_vault(self)
        report.merge(analyzer.analyze_storage(self.catalog))
        return report

    def status(self) -> dict[str, Any]:
        """One structured view of the vault's health."""
        manifest = self.manifest()
        by_kind: dict[str, int] = {}
        by_level: dict[int, int] = {}
        for row in manifest:
            by_kind[row["kind"]] = by_kind.get(row["kind"], 0) + 1
            by_level[row["level"]] = by_level.get(row["level"], 0) + 1
        runs_by_workflow: dict[str, int] = {}
        for run in self.provenance.runs():
            name = run["workflow_name"]
            runs_by_workflow[name] = runs_by_workflow.get(name, 0) + 1
        metrics = self.telemetry.metrics
        return {
            "name": self.name,
            "stores": [store.name for store in self.group.stores],
            "quorum": self.group.quorum,
            "objects": self.object_count(),
            "logical_bytes": self.group.stores[0].total_bytes(),
            "manifest": {"by_kind": by_kind,
                         "by_level": {str(k): v
                                      for k, v in sorted(by_level.items())}},
            "replica_lag": self.group.replica_lag(),
            "at_risk_records": len(self.at_risk()),
            "last_audit": None if self._last_audit is None
            else self._last_audit.to_dict(),
            "provenance_runs": runs_by_workflow,
            "federation": (None if self.federation is None
                           else self.federation.status()),
            "counters": {
                "corruptions_found":
                    metrics.total("vault_corruptions_found_total"),
                "corruptions_repaired":
                    metrics.total("vault_corruptions_repaired_total"),
                "bytes_audited":
                    metrics.total("vault_bytes_audited_total"),
                "migrations": metrics.total("vault_migrations_total"),
            },
        }
