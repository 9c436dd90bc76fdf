"""The full curation pipeline.

Orchestrates the paper's two stages over one collection:

* **stage 1** — cleaning, geocoding (with auto-approval of the
  unambiguous results so stage 1.3 can use them), environmental
  enrichment, and the Outdated Species Name Detection Workflow;
* **stage 2** — the spatial audit.

"These are not, moreover, isolated activities that are performed only
once" — the pipeline object is reusable; re-running it against an
advanced catalogue models the periodic re-curation of 2011 -> 2013.
"""

from __future__ import annotations

import time
from typing import Any, Callable, TypeVar

from repro.curation.cleaning import CleaningReport, MetadataCleaner
from repro.curation.enrichment import EnrichmentReport, EnvironmentalEnricher
from repro.curation.geocoding import Geocoder, GeocodingReport
from repro.curation.history import CurationHistory
from repro.curation.name_repair import NameRepairer, NameRepairReport
from repro.curation.spatial_audit import SpatialAuditor, SpatialAuditReport
from repro.curation.species_check import SpeciesCheckResult, SpeciesNameChecker
from repro.geo.climate import ClimateArchive
from repro.geo.gazetteer import Gazetteer
from repro.provenance.manager import ProvenanceManager
from repro.sounds.collection import SoundCollection
from repro.taxonomy.service import CatalogueService
from repro.telemetry import get_telemetry
from repro.workflow.cache import resource_key
from repro.workflow.engine import WorkflowEngine

__all__ = ["PipelineReport", "CurationPipeline", "CollectionSink",
           "CATALOGUE_RESOURCE"]

_T = TypeVar("_T")

#: resource name under which catalogue-dependent cache entries are
#: tagged (see :meth:`CurationPipeline.recheck_names`)
CATALOGUE_RESOURCE = "catalogue_of_life"


class CollectionSink:
    """Adapts a :class:`SoundCollection` to the streaming ``add_all``
    protocol (see :class:`~repro.streaming.stream.ObservationStream`).

    Record ids are assigned *before* the batch lands so ``on_batch``
    hooks can map the flushed records to a dirty set;
    :attr:`last_ids` holds the ids of the most recent batch.
    """

    def __init__(self, collection: SoundCollection) -> None:
        self.collection = collection
        self.last_ids: list[int] = []
        self.total = 0

    def add_all(self, batch: list[Any]) -> int:
        from repro.sounds.collection import RECORDINGS
        rows: list[dict[str, Any]] = []
        ids: list[int] = []
        next_id = len(self.collection) + 1
        for item in batch:
            row = item.to_row() if hasattr(item, "to_row") else dict(item)
            if row.get("record_id") is None:
                row["record_id"] = next_id
            next_id = max(next_id, row["record_id"]) + 1
            ids.append(row["record_id"])
            rows.append(row)
        # same batched write path add_many uses: one validation pass,
        # deferred index maintenance, one journal entry
        self.collection.database.bulk_load(RECORDINGS, rows)
        self.last_ids = ids
        self.total += len(rows)
        return len(rows)


class PipelineReport:
    """Everything one pipeline pass produced."""

    def __init__(self) -> None:
        self.cleaning: CleaningReport | None = None
        self.name_repair: NameRepairReport | None = None
        self.geocoding: GeocodingReport | None = None
        self.enrichment: EnrichmentReport | None = None
        self.species_check: SpeciesCheckResult | None = None
        self.spatial_audit: SpatialAuditReport | None = None

    def summary(self) -> dict[str, Any]:
        parts: dict[str, Any] = {}
        if self.cleaning is not None:
            parts["cleaning"] = self.cleaning.summary()
        if self.name_repair is not None:
            parts["name_repair"] = self.name_repair.summary()
        if self.geocoding is not None:
            parts["geocoding"] = self.geocoding.summary()
        if self.enrichment is not None:
            parts["enrichment"] = self.enrichment.summary()
        if self.species_check is not None:
            parts["species_check"] = dict(self.species_check.summary)
        if self.spatial_audit is not None:
            parts["spatial_audit"] = self.spatial_audit.summary()
        return parts

    def __repr__(self) -> str:
        done = [name for name, value in (
            ("cleaning", self.cleaning), ("geocoding", self.geocoding),
            ("enrichment", self.enrichment),
            ("species_check", self.species_check),
            ("spatial_audit", self.spatial_audit),
        ) if value is not None]
        return f"PipelineReport(stages={done})"


class CurationPipeline:
    """Stage orchestration for one collection.

    Pass an ``engine`` built with ``max_workers`` and a ``cache`` for
    wave-parallel processor execution and content-keyed memoization of
    repeat invocations (periodic re-curation re-runs the same workflows
    over mostly unchanged data); a serial, uncached engine otherwise.
    """

    def __init__(self, collection: SoundCollection,
                 service: CatalogueService,
                 gazetteer: Gazetteer | None = None,
                 climate: ClimateArchive | None = None,
                 engine: WorkflowEngine | None = None,
                 provenance: ProvenanceManager | None = None) -> None:
        self.collection = collection
        self.service = service
        self.gazetteer = gazetteer or Gazetteer()
        self.climate = climate or ClimateArchive()
        self.engine = engine or WorkflowEngine()
        self.provenance = provenance or ProvenanceManager()
        self.telemetry = get_telemetry()
        self.history = CurationHistory(collection)
        self.checker = SpeciesNameChecker(
            collection, service, engine=self.engine,
            provenance=self.provenance, history=self.history,
        )

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------

    def _timed_stage(self, stage: str, work: Callable[[], _T]) -> _T:
        """Run one stage under a span, recording wall time + throughput.

        Stage spans sit on the engine's simulated timeline (so the
        species-check stage nests the workflow run); the histogram
        records real wall seconds, which is what per-stage throughput
        tuning needs.
        """
        metrics = self.telemetry.metrics
        records = len(self.collection)
        wall_start = time.perf_counter()
        with self.telemetry.tracer.span(
                "curation.stage", clock=self.engine.clock,
                stage=stage, records=records):
            result = work()
        elapsed = time.perf_counter() - wall_start
        metrics.histogram("curation_stage_seconds",
                          stage=stage).observe(elapsed)
        metrics.counter("curation_stage_records_total",
                        stage=stage).inc(records)
        metrics.counter("curation_stage_runs_total", stage=stage).inc()
        return result

    def run_stage1(self, run_species_check: bool = True,
                   repair_names: bool = False) -> PipelineReport:
        """Cleaning -> (fuzzy name repair) -> geocoding -> enrichment ->
        name check."""
        report = PipelineReport()
        report.cleaning = self._timed_stage(
            "cleaning", MetadataCleaner(self.history).run)
        if repair_names:
            report.name_repair = self._timed_stage(
                "name_repair",
                NameRepairer(self.history, self.service.catalogue).run)
        geocoder = Geocoder(self.history, self.gazetteer)
        report.geocoding = self._timed_stage("geocoding", geocoder.run)
        # Unambiguous gazetteer hits are validated in bulk (the paper's
        # curators validated each step); ambiguous ones stay in the
        # disambiguation queue.
        self.history.approve_step(Geocoder.STEP,
                                  curator="curator (bulk validation)")
        report.enrichment = self._timed_stage(
            "enrichment",
            EnvironmentalEnricher(self.history, self.climate).run)
        if run_species_check:
            report.species_check = self._timed_stage(
                "species_check", self.checker.run)
        return report

    def run_stage2(self) -> SpatialAuditReport:
        """The spatial audit over the curated view."""
        return self._timed_stage(
            "spatial_audit",
            SpatialAuditor(self.collection, history=self.history).run)

    def run_all(self) -> PipelineReport:
        report = self.run_stage1()
        report.spatial_audit = self.run_stage2()
        return report

    # ------------------------------------------------------------------
    # continuous curation
    # ------------------------------------------------------------------

    def recheck_names(self, as_of_year: int) -> SpeciesCheckResult:
        """Re-run only the name check against the catalogue as known in
        ``as_of_year`` (the 2011 -> 2013 re-initiation of stage 1).

        Cache entries tagged with the catalogue resource are dropped
        first: any incremental curator sharing this engine's result
        cache will re-resolve names instead of replaying verdicts from
        the superseded catalogue."""
        self.service.catalogue.advance_to(as_of_year)
        if self.engine.cache is not None:
            self.engine.cache.invalidate_tags(
                resource_key(CATALOGUE_RESOURCE))
        return self.checker.run()
