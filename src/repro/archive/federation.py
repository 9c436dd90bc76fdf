"""The federated multi-site vault.

:class:`FederatedVault` scales the single-group
:class:`~repro.archive.replicas.ReplicaGroup` story out to a simulated
:class:`~repro.archive.sites.SiteTopology`:

* **store** — a payload is made redundant per its preservation level's
  :class:`~repro.archive.placement.RedundancyScheme` (full replicas or
  k-of-n erasure shards) and the fragments are spread across regions by
  the :class:`~repro.archive.placement.PlacementPolicy`;
* **fetch** — reads are latency-weighted: the cheapest available sites
  that can serve the object are tried first, shards are gathered until
  ``k`` verify, and the erasure decoder re-checks the payload digest
  before returning;
* **sync** — every site's *actual* Merkle manifest is diffed against
  the *expected* manifest the placement catalog maintains for it, so a
  fixity sync walks O(log n) diverging subtrees instead of re-hashing
  the site; divergent fragments are repaired from surviving replicas
  or reconstructed from surviving shards;
* **audit** — sampling scrubs re-hash a deterministic fraction of each
  site's holdings, making silent bit rot visible to the manifests (and
  therefore to the next sync);
* **rebuild** — when a site is lost, every fragment it held is
  re-materialized onto replacement sites chosen by the same
  region-spreading rule.

Syncs, audits and rebuilds are preservation events, so — exactly like
:class:`~repro.archive.fixity.FixityAuditor` sweeps — each one is
persisted as an OPM run in the provenance repository, and everything is
instrumented through ``federation_*`` telemetry series.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from repro.archive.clock import TickClock
from repro.archive.erasure import Shard, encode, reconstruct
from repro.archive.merkle import MerkleManifest
from repro.archive.placement import (
    ERASURE,
    FULL_REPLICA,
    PlacementPolicy,
    RedundancyScheme,
    replica_durability,
)
from repro.archive.sites import ScrubFinding, Site, SiteTopology
from repro.errors import (
    ArchiveError,
    ErasureError,
    FixityError,
    ObjectMissingError,
    PlacementError,
    SiteUnavailableError,
)
from repro.hashing import canonical_json, sha256_hex
from repro.provenance.opm import OPMGraph
from repro.provenance.repository import ProvenanceRepository
from repro.telemetry import Telemetry, get_telemetry
from repro.workflow.trace import ProcessorRun, WorkflowTrace

__all__ = ["FederatedVault", "FederatedObject", "Placement",
           "SyncReport", "AuditSampleReport", "RebuildReport",
           "SYNC_WORKFLOW", "AUDIT_WORKFLOW", "REBUILD_WORKFLOW"]

SYNC_WORKFLOW = "federation_sync"
AUDIT_WORKFLOW = "federation_audit"
REBUILD_WORKFLOW = "site_rebuild"


class Placement:
    """One fragment of one object on one site."""

    __slots__ = ("site", "role", "stored", "fragment_bytes")

    def __init__(self, site: str, role: str, stored: str,
                 fragment_bytes: int) -> None:
        self.site = site
        self.role = role            # "replica" | "shard:<index>"
        self.stored = stored        # the fragment's key in the site CAS
        self.fragment_bytes = fragment_bytes

    @property
    def shard_index(self) -> int | None:
        if self.role.startswith("shard:"):
            return int(self.role.split(":", 1)[1])
        return None

    def __repr__(self) -> str:
        return f"Placement({self.role} on {self.site})"

    def to_dict(self) -> dict[str, Any]:
        return {"site": self.site, "role": self.role,
                "stored": self.stored,
                "fragment_bytes": self.fragment_bytes}


class FederatedObject:
    """The placement catalog's row for one logical object."""

    __slots__ = ("digest", "level", "scheme", "size_bytes", "placements")

    def __init__(self, digest: str, level: int, scheme: RedundancyScheme,
                 size_bytes: int,
                 placements: Sequence[Placement]) -> None:
        self.digest = digest
        self.level = level
        self.scheme = scheme
        self.size_bytes = size_bytes
        self.placements = list(placements)

    def placements_on(self, site: str) -> list[Placement]:
        return [p for p in self.placements if p.site == site]

    def __repr__(self) -> str:
        return (
            f"FederatedObject({self.digest[:12]}…, level={self.level}, "
            f"{self.scheme!r}, {len(self.placements)} fragments)"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "digest": self.digest,
            "level": self.level,
            "scheme": self.scheme.to_dict(),
            "size_bytes": self.size_bytes,
            "placements": [p.to_dict() for p in self.placements],
        }


class SyncReport:
    """What one cross-site sync established and repaired."""

    def __init__(self, run_id: str | None) -> None:
        self.run_id = run_id
        self.sites_synced: list[str] = []
        self.diverged: list[dict[str, Any]] = []   # {site, stored, prefixes}
        self.repaired: list[dict[str, Any]] = []   # {site, role, digest, reason}
        self.unrecoverable: list[dict[str, Any]] = []
        self.nodes_compared = 0

    @property
    def healthy(self) -> bool:
        return not self.diverged

    def __repr__(self) -> str:
        return (
            f"SyncReport({self.run_id}, {len(self.diverged)} diverged, "
            f"{len(self.repaired)} repaired)"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "sites_synced": list(self.sites_synced),
            "diverged": list(self.diverged),
            "repaired": list(self.repaired),
            "unrecoverable": list(self.unrecoverable),
            "nodes_compared": self.nodes_compared,
            "healthy": self.healthy,
        }


class AuditSampleReport:
    """What one sampling scrub pass found."""

    def __init__(self, run_id: str, sample_fraction: float,
                 objects_scrubbed: int,
                 findings: Sequence[ScrubFinding]) -> None:
        self.run_id = run_id
        self.sample_fraction = sample_fraction
        self.objects_scrubbed = objects_scrubbed
        self.findings = list(findings)

    @property
    def healthy(self) -> bool:
        return not self.findings

    def __repr__(self) -> str:
        return (
            f"AuditSampleReport({self.run_id}, "
            f"{self.objects_scrubbed} scrubbed, "
            f"{len(self.findings)} finding(s))"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "sample_fraction": self.sample_fraction,
            "objects_scrubbed": self.objects_scrubbed,
            "findings": [f.to_dict() for f in self.findings],
            "healthy": self.healthy,
        }


class RebuildReport:
    """Fragments re-materialized after a site loss."""

    def __init__(self, run_id: str | None, lost_site: str) -> None:
        self.run_id = run_id
        self.lost_site = lost_site
        self.rebuilt: list[dict[str, Any]] = []
        self.unrecoverable: list[dict[str, Any]] = []

    def __len__(self) -> int:
        return len(self.rebuilt)

    def __repr__(self) -> str:
        return (
            f"RebuildReport({self.lost_site}: {len(self.rebuilt)} "
            f"rebuilt, {len(self.unrecoverable)} unrecoverable)"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "lost_site": self.lost_site,
            "rebuilt": list(self.rebuilt),
            "unrecoverable": list(self.unrecoverable),
        }


def _shard_envelope(shard: Shard) -> str:
    return canonical_json(shard.to_dict())


class FederatedVault:
    """Erasure-coded, Merkle-audited storage across a site topology.

    Parameters
    ----------
    topology:
        The sites fragments land on.
    policy:
        Per-level redundancy schemes + geo-aware site selection; the
        default policy erasure-codes levels 1–2 (k=4, n=8) and keeps
        three full replicas for levels 3–4.
    telemetry:
        Metrics sink (``federation_*`` series).

    Sync, audit and rebuild runs go to the vault's own
    :attr:`provenance` repository as OPM graphs, timed by a
    :class:`~repro.archive.clock.TickClock`.
    """

    #: the OPM agent controlling syncs, audits and rebuilds
    agent_id = "agent/federation"

    def __init__(self, topology: SiteTopology,
                 policy: PlacementPolicy | None = None,
                 telemetry: Telemetry | None = None) -> None:
        if not len(topology):
            raise ArchiveError("a federated vault needs at least one site")
        self.topology = topology
        self.policy = policy or PlacementPolicy()
        self.provenance = ProvenanceRepository()
        self.telemetry = telemetry or get_telemetry()
        self.clock = TickClock()
        self._catalog: dict[str, FederatedObject] = {}
        #: per site: the manifest of what the catalog says it SHOULD hold
        self._expected: dict[str, MerkleManifest] = {}
        #: stored fragment key -> (object digest, placement)
        self._fragment_index: dict[str, tuple[str, Placement]] = {}
        self._syncs = 0
        self._audits = 0
        self._rebuilds = 0
        self._refresh_site_gauges()

    def __repr__(self) -> str:
        return (
            f"FederatedVault({len(self.topology)} sites, "
            f"{len(self._catalog)} objects)"
        )

    # ------------------------------------------------------------------
    # catalog bookkeeping
    # ------------------------------------------------------------------

    def expected_manifest(self, site_name: str) -> MerkleManifest:
        manifest = self._expected.get(site_name)
        if manifest is None:
            site = self.topology.site(site_name)
            manifest = MerkleManifest(
                depth=site.manifest().depth)
            self._expected[site_name] = manifest
        return manifest

    def _note_placement(self, digest: str, placement: Placement) -> None:
        self.expected_manifest(placement.site).set(placement.stored,
                                                   placement.stored)
        self._fragment_index[placement.stored] = (digest, placement)

    def _forget_placement(self, placement: Placement) -> None:
        self.expected_manifest(placement.site).remove(placement.stored)

    def object(self, digest: str) -> FederatedObject:
        try:
            return self._catalog[digest]
        except KeyError:
            raise ObjectMissingError(
                f"federation: no object {digest!r} in the catalog"
            ) from None

    def objects(self) -> list[FederatedObject]:
        return [self._catalog[d] for d in sorted(self._catalog)]

    def __len__(self) -> int:
        return len(self._catalog)

    def __contains__(self, digest: str) -> bool:
        return digest in self._catalog

    # ------------------------------------------------------------------
    # store
    # ------------------------------------------------------------------

    def store(self, payload: str, level: int = 3,
              scheme: RedundancyScheme | None = None) -> str:
        """Place ``payload`` per its level's redundancy scheme; returns
        the object digest.  Re-storing a known payload is a no-op."""
        digest = sha256_hex(payload)
        if digest in self._catalog:
            return digest
        scheme = scheme or self.policy.scheme_for_level(level)
        size = len(payload.encode("utf-8"))
        metrics = self.telemetry.metrics
        sites = self.policy.choose_sites(self.topology, scheme.fragments)
        placements: list[Placement] = []
        if scheme.kind == FULL_REPLICA:
            for site in sites:
                stored = site.put(payload)
                placements.append(Placement(site.name, "replica", stored,
                                            size))
                metrics.counter("federation_fragments_stored_total",
                                kind="replica").inc()
        else:
            shards = encode(payload.encode("utf-8"), scheme.k, scheme.n)
            for site, shard in zip(sites, shards):
                envelope = _shard_envelope(shard)
                stored = site.put(envelope,
                                  media_type="application/x-shard+json")
                placements.append(Placement(site.name,
                                            f"shard:{shard.index}",
                                            stored, shard.size))
                metrics.counter("federation_fragments_stored_total",
                                kind="shard").inc()
        record = FederatedObject(digest, int(level), scheme, size,
                                 placements)
        self._catalog[digest] = record
        for placement in placements:
            self._note_placement(digest, placement)
        metrics.counter("federation_objects_stored_total",
                        scheme=scheme.kind).inc()
        metrics.counter("federation_bytes_stored_total",
                        scheme=scheme.kind).inc(
            sum(p.fragment_bytes for p in placements))
        self._refresh_site_gauges()
        return digest

    # ------------------------------------------------------------------
    # fetch
    # ------------------------------------------------------------------

    def fetch(self, digest: str) -> str:
        """The payload, gathered from the cheapest sites that can serve
        it, fixity-verified end to end."""
        record = self.object(digest)
        metrics = self.telemetry.metrics
        if record.scheme.kind == FULL_REPLICA:
            ordered = self.policy.read_order(
                [self.topology.site(p.site) for p in record.placements])
            for site in ordered:
                try:
                    payload = site.get_verified(digest)
                except (SiteUnavailableError, ObjectMissingError,
                        FixityError):
                    continue
                metrics.counter("federation_reads_total",
                                scheme=FULL_REPLICA).inc()
                return payload
            raise ArchiveError(
                f"object {digest[:12]}…: no replica site could serve a "
                f"verified copy (tried {len(ordered)})"
            )
        # cheapest sites first; a site may hold several shards after a
        # degraded rebuild, so walk placements, not sites
        ordered = sorted(
            record.placements,
            key=lambda p: (self.topology.site(p.site).latency_ms,
                           p.site, p.role))
        shards: list[Shard] = []
        seen_indexes: set[int] = set()
        for placement in ordered:
            if len(shards) >= record.scheme.k:
                break
            site = self.topology.site(placement.site)
            if not site.available:
                continue
            try:
                envelope = site.get_verified(placement.stored)
            except (SiteUnavailableError, ObjectMissingError,
                    FixityError):
                continue
            shard = Shard.from_dict(json.loads(envelope))
            if shard.intact() and shard.index not in seen_indexes:
                shards.append(shard)
                seen_indexes.add(shard.index)
        try:
            payload = reconstruct(shards)
        except ErasureError as exc:
            raise ArchiveError(
                f"object {digest[:12]}…: erasure reconstruction failed "
                f"({exc})"
            ) from exc
        metrics.counter("federation_reads_total", scheme=ERASURE).inc()
        return payload.decode("utf-8")

    # ------------------------------------------------------------------
    # fragment repair machinery
    # ------------------------------------------------------------------

    def _materialize_fragment(self, record: FederatedObject,
                              placement: Placement,
                              target: Site) -> None:
        """(Re)create one fragment on ``target`` from surviving copies."""
        if placement.role == "replica":
            payload = self._payload_from_elsewhere(record, exclude=())
            target.restore(placement.stored, payload)
            return
        payload = self.fetch(record.digest)
        shards = encode(payload.encode("utf-8"), record.scheme.k,
                        record.scheme.n)
        shard = shards[placement.shard_index]
        envelope = _shard_envelope(shard)
        if sha256_hex(envelope) != placement.stored:
            raise ArchiveError(
                f"re-encoded shard {placement.role} of "
                f"{record.digest[:12]}… does not match its cataloged "
                "fragment key"
            )
        target.restore(placement.stored, envelope,
                       media_type="application/x-shard+json")

    def _payload_from_elsewhere(self, record: FederatedObject,
                                exclude: Sequence[str]) -> str:
        excluded = set(exclude)
        ordered = self.policy.read_order([
            self.topology.site(p.site) for p in record.placements
            if p.site not in excluded and p.role == "replica"
        ])
        for site in ordered:
            try:
                return site.get_verified(record.digest)
            except (SiteUnavailableError, ObjectMissingError,
                    FixityError):
                continue
        raise ArchiveError(
            f"object {record.digest[:12]}…: no healthy replica left to "
            "repair from"
        )

    # ------------------------------------------------------------------
    # sync
    # ------------------------------------------------------------------

    def sync(self) -> SyncReport:
        """Diff every site's actual manifest against its expected one,
        repair divergent fragments, and persist the sync as an OPM run.

        The walk is Merkle-cheap: agreeing subtrees cost one hash
        comparison, so a clean 10k-object site syncs in O(1) and a
        damaged one in O(depth · divergent buckets).
        """
        self._syncs += 1
        run_id = f"federation/sync-{self._syncs:04d}"
        report = SyncReport(run_id)
        started = self.clock.now()
        trace = WorkflowTrace(run_id, SYNC_WORKFLOW, started)
        metrics = self.telemetry.metrics
        metrics.counter("federation_sync_runs_total").inc()

        for site in self.topology.available_sites():
            report.sites_synced.append(site.name)
            step_started = self.clock.now()
            diff = site.manifest().diff(self.expected_manifest(site.name))
            report.nodes_compared += diff.nodes_compared
            expected = self.expected_manifest(site.name)
            for stored in diff.digests:
                entry = self._fragment_index.get(stored)
                if entry is None or expected.state(stored) is None:
                    # present at the site but not expected there — a
                    # stray from a retired or relocated placement;
                    # drop it rather than "repair" it back into place
                    if site.store.exists(stored):
                        site.drop(stored)
                    else:
                        site.manifest().remove(stored)
                    report.repaired.append({
                        "site": site.name, "role": "stray",
                        "digest": stored, "reason": "unexpected",
                    })
                    metrics.counter("federation_sync_repairs_total",
                                    reason="unexpected").inc()
                    continue
                digest, placement = entry
                record = self.object(digest)
                actual_state = site.manifest().state(stored)
                reason = ("missing" if actual_state is None
                          else "corrupt")
                report.diverged.append({
                    "site": site.name, "stored": stored,
                    "digest": digest, "reason": reason,
                    "prefixes": [p for p in diff.prefixes
                                 if stored.startswith(p)],
                })
                try:
                    self._materialize_fragment(record, placement, site)
                except ArchiveError as exc:
                    report.unrecoverable.append({
                        "site": site.name, "digest": digest,
                        "role": placement.role, "error": str(exc),
                    })
                    metrics.counter("federation_sync_unrecoverable_total"
                                    ).inc()
                    continue
                report.repaired.append({
                    "site": site.name, "role": placement.role,
                    "digest": digest, "reason": reason,
                })
                metrics.counter("federation_sync_repairs_total",
                                reason=reason).inc()
            trace.record_run(ProcessorRun(
                f"sync:{site.name}", "federation_sync",
                step_started, self.clock.now(),
            ))

        finished = self.clock.now()
        trace.inputs = {"sites": report.sites_synced}
        trace.outputs = report.to_dict()
        trace.finish(finished,
                     "completed" if not report.unrecoverable
                     else "degraded")
        self.provenance.store_run(
            trace, self._sync_graph(report, started, finished))
        self._refresh_site_gauges()
        return report

    def _sync_graph(self, report: SyncReport, started: Any,
                    finished: Any) -> OPMGraph:
        graph = OPMGraph(report.run_id)
        process_id = f"{report.run_id}/sync"
        graph.add_process(process_id, label="federated manifest sync",
                          annotations={
                              "started": str(started),
                              "finished": str(finished),
                              "sites": list(report.sites_synced),
                              "nodes_compared": report.nodes_compared,
                              "diverged": len(report.diverged),
                              "repaired": len(report.repaired),
                          })
        graph.add_agent(self.agent_id, label="federation manager")
        graph.was_controlled_by(process_id, self.agent_id, role="sync")
        for repair in report.repaired:
            if repair["role"] == "stray":
                continue
            source_id = f"cas:{repair['digest']}"
            if not graph.has_node(source_id):
                graph.add_artifact(source_id, label=source_id)
                graph.used(process_id, source_id, role="healthy-source")
            fragment_id = (f"fragment:{repair['site']}/"
                           f"{repair['role']}/{repair['digest']}")
            graph.add_artifact(fragment_id, label=fragment_id,
                               annotations={"was": repair["reason"]})
            graph.was_generated_by(fragment_id, process_id,
                                   role="restored")
            graph.was_derived_from(fragment_id, source_id)
        return graph

    # ------------------------------------------------------------------
    # sampling audit
    # ------------------------------------------------------------------

    def audit_sample(self, sample_fraction: float = 0.1
                     ) -> AuditSampleReport:
        """Scrub a deterministic sample of every available site's
        holdings; findings update the sites' manifests (so the next
        :meth:`sync` localizes and repairs them) and the pass is
        persisted as an OPM run."""
        self._audits += 1
        run_id = f"federation/audit-{self._audits:04d}"
        started = self.clock.now()
        trace = WorkflowTrace(run_id, AUDIT_WORKFLOW, started)
        metrics = self.telemetry.metrics
        findings: list[ScrubFinding] = []
        scrubbed = 0
        for site in self.topology.available_sites():
            step_started = self.clock.now()
            catalog_size = len(site.store)
            site_findings = site.scrub(sample_fraction=sample_fraction,
                                       seed=self._audits)
            findings.extend(site_findings)
            scrubbed += (max(1, round(catalog_size * sample_fraction))
                         if catalog_size else 0)
            trace.record_run(ProcessorRun(
                f"scrub:{site.name}", "federation_audit",
                step_started, self.clock.now(),
            ))
        report = AuditSampleReport(run_id, sample_fraction, scrubbed,
                                   findings)
        metrics.counter("federation_audit_scrubs_total").inc()
        metrics.counter("federation_objects_scrubbed_total").inc(scrubbed)
        for finding in findings:
            metrics.counter("federation_corruptions_found_total",
                            state=finding.state).inc()

        finished = self.clock.now()
        trace.inputs = {"sample_fraction": sample_fraction,
                        "sites": [s.name for s in
                                  self.topology.available_sites()]}
        trace.outputs = report.to_dict()
        trace.finish(finished,
                     "completed" if report.healthy else "degraded")
        graph = OPMGraph(run_id)
        process_id = f"{run_id}/scrub"
        graph.add_process(process_id, label="federated sampling audit",
                          annotations={
                              "started": str(started),
                              "finished": str(finished),
                              "sample_fraction": sample_fraction,
                              "objects_scrubbed": scrubbed,
                              "findings": len(findings),
                          })
        graph.add_agent(self.agent_id, label="federation manager")
        graph.was_controlled_by(process_id, self.agent_id, role="auditor")
        for finding in findings:
            artifact_id = f"fragment:{finding.site}/{finding.digest}"
            graph.add_artifact(artifact_id, label=artifact_id,
                               annotations={"state": finding.state})
            graph.used(process_id, artifact_id, role="flagged")
        self.provenance.store_run(trace, graph)
        return report

    # ------------------------------------------------------------------
    # rebuild on site loss
    # ------------------------------------------------------------------

    def rebuild_site(self, lost_site: str) -> RebuildReport:
        """Re-materialize every fragment the lost site held onto
        replacement sites (region-spread, excluding the dead site and
        sites already holding a fragment of the same object), update
        the placement catalog, and persist the rebuild as an OPM run."""
        lost = self.topology.site(lost_site)
        if lost.available:
            raise ArchiveError(
                f"site {lost_site} is still available; fail it first "
                "(topology.fail_site) before rebuilding away from it"
            )
        self._rebuilds += 1
        run_id = f"federation/rebuild-{self._rebuilds:04d}"
        report = RebuildReport(run_id, lost_site)
        started = self.clock.now()
        trace = WorkflowTrace(run_id, REBUILD_WORKFLOW, started)
        metrics = self.telemetry.metrics

        graph = OPMGraph(run_id)
        process_id = f"{run_id}/rebuild"
        graph.add_agent(self.agent_id, label="federation manager")

        for record in self.objects():
            for placement in record.placements_on(lost_site):
                step_started = self.clock.now()
                occupied = [p.site for p in record.placements]
                try:
                    try:
                        replacement = self.policy.choose_sites(
                            self.topology, 1,
                            exclude=[lost_site, *occupied])[0]
                    except PlacementError:
                        if placement.role == "replica":
                            # a replica doubled up on a site it already
                            # occupies adds no redundancy — give up
                            raise
                        # too few sites to keep every shard distinct:
                        # degrade gracefully by doubling up (distinct
                        # CAS keys, so nothing collides)
                        replacement = self.policy.choose_sites(
                            self.topology, 1, exclude=[lost_site])[0]
                    self._materialize_fragment(record, placement,
                                               replacement)
                except ArchiveError as exc:
                    report.unrecoverable.append({
                        "digest": record.digest, "role": placement.role,
                        "error": str(exc),
                    })
                    continue
                self._forget_placement(placement)
                placement.site = replacement.name
                self._note_placement(record.digest, placement)
                report.rebuilt.append({
                    "digest": record.digest, "role": placement.role,
                    "from": lost_site, "to": replacement.name,
                })
                metrics.counter("federation_rebuilt_fragments_total").inc()
                source_id = f"cas:{record.digest}"
                if not graph.has_node(source_id):
                    graph.add_artifact(source_id, label=source_id)
                fragment_id = (f"fragment:{replacement.name}/"
                               f"{placement.role}/{record.digest}")
                graph.add_artifact(fragment_id, label=fragment_id,
                                   annotations={"was_on": lost_site})
                graph.was_derived_from(fragment_id, source_id)
                trace.record_run(ProcessorRun(
                    f"rebuild:{placement.role}", "site_rebuild",
                    step_started, self.clock.now(),
                ))

        finished = self.clock.now()
        graph.add_process(process_id, label=f"rebuild of {lost_site}",
                          annotations={
                              "started": str(started),
                              "finished": str(finished),
                              "fragments_rebuilt": len(report.rebuilt),
                              "unrecoverable": len(report.unrecoverable),
                          })
        graph.was_controlled_by(process_id, self.agent_id,
                                role="rebuilder")
        for entry in report.rebuilt:
            fragment_id = (f"fragment:{entry['to']}/{entry['role']}/"
                           f"{entry['digest']}")
            graph.was_generated_by(fragment_id, process_id,
                                   role="rebuilt")
        trace.inputs = {"lost_site": lost_site}
        trace.outputs = report.to_dict()
        trace.finish(finished,
                     "completed" if not report.unrecoverable
                     else "degraded")
        self.provenance.store_run(trace, graph)
        self._refresh_site_gauges()
        return report

    # ------------------------------------------------------------------
    # cost / durability reporting
    # ------------------------------------------------------------------

    def storage_cost(self) -> dict[str, dict[str, float]]:
        """Logical vs stored fragment bytes per redundancy scheme.

        ``fragment_bytes`` counts true fragment payloads (shard data
        bytes, replica payload bytes); the simulated CAS's JSON/hex
        envelope overhead is an artifact of the text-backed store and
        deliberately excluded from the cost model.
        """
        costs: dict[str, dict[str, float]] = {}
        for record in self._catalog.values():
            bucket = costs.setdefault(record.scheme.kind, {
                "objects": 0, "logical_bytes": 0, "stored_bytes": 0,
            })
            bucket["objects"] += 1
            bucket["logical_bytes"] += record.size_bytes
            bucket["stored_bytes"] += sum(
                p.fragment_bytes for p in record.placements)
        for bucket in costs.values():
            bucket["overhead_factor"] = (
                round(bucket["stored_bytes"] / bucket["logical_bytes"], 4)
                if bucket["logical_bytes"] else 0.0
            )
        return costs

    def durability_report(self,
                          site_loss_probability: float = 0.05
                          ) -> dict[str, Any]:
        """The cost/durability trade per preservation level — the
        numbers the DQM preservation report surfaces.

        For each configured level: the scheme, its storage overhead
        factor, its modeled durability under independent site loss, and
        the full-replica cost that would buy *at least* that durability
        (the apples-to-apples comparison erasure is judged against).
        """
        levels: dict[str, Any] = {}
        for level in sorted(self.policy.level_schemes):
            scheme = self.policy.level_schemes[level]
            durability = scheme.durability(site_loss_probability)
            copies = 1
            while replica_durability(site_loss_probability,
                                     copies) < durability:
                copies += 1
                if copies > 64:
                    break
            levels[str(level)] = {
                "scheme": scheme.to_dict(),
                "overhead_factor": round(scheme.overhead_factor, 4),
                "durability": durability,
                "equivalent_replica_copies": copies,
                "equivalent_replica_overhead": float(copies),
            }
        return {
            "site_loss_probability": site_loss_probability,
            "levels": levels,
            "storage_cost": self.storage_cost(),
        }

    # ------------------------------------------------------------------
    # status / telemetry
    # ------------------------------------------------------------------

    def _refresh_site_gauges(self) -> None:
        metrics = self.telemetry.metrics
        metrics.gauge("federation_sites").set(len(self.topology))
        metrics.gauge("federation_sites_available").set(
            len(self.topology.available_sites()))
        metrics.gauge("federation_objects").set(len(self._catalog))

    def status(self) -> dict[str, Any]:
        by_scheme: dict[str, int] = {}
        for record in self._catalog.values():
            by_scheme[record.scheme.kind] = (
                by_scheme.get(record.scheme.kind, 0) + 1)
        runs_by_workflow: dict[str, int] = {}
        for run in self.provenance.runs():
            name = run["workflow_name"]
            runs_by_workflow[name] = runs_by_workflow.get(name, 0) + 1
        return {
            "sites": self.topology.to_dict()["sites"],
            "regions": self.topology.regions(),
            "objects": len(self._catalog),
            "objects_by_scheme": by_scheme,
            "storage_cost": self.storage_cost(),
            "provenance_runs": runs_by_workflow,
            "simulated_io_ms": {
                site.name: round(site.simulated_io_ms, 3)
                for site in self.topology.sites()
            },
        }
