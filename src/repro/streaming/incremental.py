"""Dirty-set-proportional quality assessment.

:class:`IncrementalCurator` splits a collection table into fixed
**shards** of ``shard_size`` consecutive record ids and assesses each
shard through a tiny two-stage workflow on the engine:

* ``Shard_reader`` — normalizes rows into per-record facts (name,
  completeness over the declared quality fields);
* ``Shard_assessor`` — resolves each distinct name through the caller's
  resolver and produces per-record verdicts plus shard quality numbers.

Both stages are cacheable; their entries are tagged with the shard key,
every ``record:<id>`` they read, and (assessor only) each
``resource:<name>`` version the verdicts depend on.  Churn arrives as
:meth:`mark_dirty` / :meth:`bump_resource` calls — typically from an
:class:`~repro.streaming.stream.ObservationStream` ``on_batch`` hook —
which invalidate the tagged cache entries and mark the owning shards
dirty.  The next :meth:`assess` re-runs **only dirty shards** (reading
only their rows), reuses the stored summaries of clean shards, and
merges deterministically, so steady-state sweep cost is proportional to
the dirty set, not the collection.  Note the flip side: edits that
bypass these hooks (direct table writes) are invisible until the next
``assess(full=True)``.

Every recomputed shard is a real engine run: the attached
:class:`~repro.provenance.manager.ProvenanceManager` captures it, so
the provenance store accumulates the *partial* OPM runs stitched over
time — a resource bump shows the reader stage replayed from cache
(``wasCachedFrom``) while only the assessor re-executed.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Mapping

from repro.hashing import canonical_digest
from repro.provenance.manager import ProvenanceManager
from repro.storage import Column, Database, TableSchema, col
from repro.storage import column_types as ct
from repro.telemetry import Telemetry, get_telemetry
from repro.workflow.cache import ResultCache, record_key, resource_key
from repro.workflow.engine import WorkflowEngine
from repro.workflow.model import Processor, Workflow

__all__ = ["AssessmentResult", "IncrementalCurator", "REVIEW_TABLE",
           "catalogue_resolver"]

REVIEW_TABLE = "stream_review_queue"

READER = "Shard_reader"
ASSESSOR = "Shard_assessor"

#: row fields whose presence feeds the completeness score by default
DEFAULT_QUALITY_FIELDS = ("species", "genus", "country", "state",
                          "collect_date")


def catalogue_resolver(catalogue: Any) -> Callable[[str], dict]:
    """Adapt ``CatalogueOfLife.resolve`` to the curator's resolver
    protocol (``name -> {"status", "accepted_name", "suggestion"}``).
    Remember to :meth:`~IncrementalCurator.bump_resource` the
    ``catalogue`` resource whenever the catalogue advances."""
    def resolve(name: str) -> dict:
        answer = catalogue.resolve(name)
        return {
            "status": answer.status,
            "accepted_name": answer.accepted_name,
            "suggestion": answer.suggestion,
        }
    return resolve


class AssessmentResult:
    """One merged sweep over every shard."""

    def __init__(self, quality: dict[str, Any],
                 review: list[dict[str, Any]],
                 shard_digests: dict[str, str],
                 run_ids: list[str],
                 shards_recomputed: int, shards_reused: int,
                 wall_seconds: float) -> None:
        self.quality = quality
        self.review = review
        self.shard_digests = shard_digests
        self.run_ids = run_ids
        self.shards_recomputed = shards_recomputed
        self.shards_reused = shards_reused
        self.wall_seconds = wall_seconds
        #: content digest of everything assessment produced — two sweeps
        #: agree iff their digests agree, which is what the differential
        #: incremental-vs-full suite asserts on
        self.digest = canonical_digest({
            "quality": quality,
            "review": review,
            "shards": shard_digests,
        })

    def summary(self) -> dict[str, Any]:
        return {
            **self.quality,
            "review_rows": len(self.review),
            "shards_recomputed": self.shards_recomputed,
            "shards_reused": self.shards_reused,
            "digest": self.digest[:16],
        }

    def __repr__(self) -> str:
        return (
            f"AssessmentResult({self.quality.get('records', 0)} records, "
            f"{self.shards_recomputed} shard(s) recomputed, "
            f"{self.shards_reused} reused)"
        )


class IncrementalCurator:
    """Shard-wise incremental assessment over one integer-id table.

    Parameters
    ----------
    database:
        The collection's database (original table is never mutated;
        verdicts land in :data:`REVIEW_TABLE`).
    resolver:
        ``name -> {"status", "accepted_name", "suggestion"}`` against
        the external authority (see :func:`catalogue_resolver`).  The
        resolver's knowledge state is **not** part of the cache key —
        declare it via ``resource_versions`` and call
        :meth:`bump_resource` when it changes.
    table / id_field / name_field / quality_fields:
        What to assess — any table with a positive-integer id column
        and a name column works, which is what keeps the pipeline
        collection-agnostic (FNJV recordings, a genomics annotation
        table, ...).
    shard_size:
        Records per shard; the dirty-set granularity.
    resource_versions:
        Initial versions of the external resources verdicts depend on,
        e.g. ``{"catalogue": 2013}``.
    """

    def __init__(self, database: Database,
                 resolver: Callable[[str], Mapping[str, Any]],
                 table: str = "recordings",
                 id_field: str = "record_id",
                 name_field: str = "species",
                 quality_fields: Iterable[str] = DEFAULT_QUALITY_FIELDS,
                 shard_size: int = 64,
                 resource_versions: Mapping[str, Any] | None = None,
                 cache: ResultCache | None = None,
                 provenance: ProvenanceManager | None = None,
                 telemetry: Telemetry | None = None) -> None:
        if shard_size < 1:
            raise ValueError("IncrementalCurator needs shard_size >= 1")
        self.database = database
        self.table = table
        self.id_field = id_field
        self.name_field = name_field
        self.quality_fields = tuple(quality_fields)
        self.shard_size = shard_size
        self.telemetry = telemetry or get_telemetry()
        self.cache = cache if cache is not None else ResultCache(
            max_entries=4096)
        self.engine = WorkflowEngine(telemetry=self.telemetry,
                                     cache=self.cache)
        self.provenance = provenance or ProvenanceManager()
        self.provenance.attach(self.engine)
        self._resolver = resolver
        self._resource_versions: dict[str, Any] = dict(
            resource_versions or {})
        #: shard key -> last outputs (quality/updates/names/count/digest)
        self._results: dict[str, dict[str, Any]] = {}
        self._dirty: set[str] = set()
        self._register_kinds()
        # shard reads are id ranges and the shard count comes from the
        # largest id: an ordered index serves both without a table scan
        # (on a primary key it replaces the hash index, and serves the
        # key lookups and UNIQUE checks in its place)
        database.create_index(table, id_field, "sorted")
        self._ensure_review_table()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def _ensure_review_table(self) -> None:
        if not self.database.has_table(REVIEW_TABLE):
            self.database.create_table(TableSchema(REVIEW_TABLE, [
                Column("record_id", ct.INTEGER),
                Column("old_name", ct.TEXT),
                Column("new_name", ct.TEXT),
                Column("reason", ct.TEXT, nullable=False),
                Column("shard", ct.TEXT, nullable=False),
                Column("status", ct.TEXT, default="flagged"),
            ], primary_key="record_id"))
            self.database.create_index(REVIEW_TABLE, "shard", "hash")
        # each sweep replaces a shard's slice by record id range
        self.database.create_index(REVIEW_TABLE, "record_id", "sorted")

    def _register_kinds(self) -> None:
        registry = self.engine.registry
        id_field = self.id_field
        name_field = self.name_field
        fields = self.quality_fields
        resolver = self._resolver

        def shard_reader(bound: Mapping[str, Any]) -> dict[str, Any]:
            rows = bound["rows"]
            records = []
            for row in rows:
                present = sum(
                    1 for field in fields
                    if row.get(field) not in (None, ""))
                name = str(row.get(name_field) or "").strip()
                records.append({
                    "record_id": row[id_field],
                    "name": name,
                    "completeness": round(present / len(fields), 6),
                })
            names = sorted({
                record["name"] for record in records if record["name"]
            })
            return {
                "records": records,
                "names": names,
                "count": len(records),
                "__duration__": max(0.05, len(records) * 0.001),
            }

        def shard_assessor(bound: Mapping[str, Any]) -> dict[str, Any]:
            records = bound["records"]
            resolutions = {
                name: dict(resolver(name)) for name in bound["names"]
            }
            updates = []
            outdated = unresolved = 0
            completeness_sum = 0.0
            for record in records:
                completeness_sum += record["completeness"]
                name = record["name"]
                if not name:
                    unresolved += 1
                    updates.append({
                        "record_id": record["record_id"],
                        "old_name": None,
                        "new_name": None,
                        "reason": "missing_name",
                    })
                    continue
                answer = resolutions[name]
                if answer["status"] == "outdated":
                    outdated += 1
                    updates.append({
                        "record_id": record["record_id"],
                        "old_name": name,
                        "new_name": answer["accepted_name"],
                        "reason": "outdated_name",
                    })
                elif answer["status"] != "accepted":
                    unresolved += 1
                    updates.append({
                        "record_id": record["record_id"],
                        "old_name": name,
                        "new_name": answer.get("suggestion"),
                        "reason": "unresolved_name",
                    })
            assessed = len(records)
            quality = {
                "assessed": assessed,
                "completeness": round(
                    completeness_sum / assessed, 6) if assessed else 1.0,
                "outdated": outdated,
                "unresolved": unresolved,
            }
            return {
                "updates": updates,
                "quality": quality,
                "__duration__": max(0.05, 0.002 * len(bound["names"])),
            }

        registry.register_function("stream_shard_reader", shard_reader)
        registry.register_function("stream_shard_assessor", shard_assessor)

    # ------------------------------------------------------------------
    # shard geometry
    # ------------------------------------------------------------------

    def _shard_index(self, record_id: int) -> int:
        return (int(record_id) - 1) // self.shard_size

    @staticmethod
    def _shard_key(index: int) -> str:
        return f"shard:{index:05d}"

    def _shard_bounds(self, index: int) -> tuple[int, int]:
        low = index * self.shard_size + 1
        return low, low + self.shard_size - 1

    def _max_record_id(self) -> int:
        rows = self.database.query(self.table).order_by(
            self.id_field, descending=True
        ).limit(1).select(self.id_field).all()
        return int(rows[0][self.id_field]) if rows else 0

    def _rows_for_shard(self, index: int) -> list[dict[str, Any]]:
        low, high = self._shard_bounds(index)
        return self.database.query(self.table).where(
            col(self.id_field).between(low, high)
        ).order_by(self.id_field).all()

    # ------------------------------------------------------------------
    # churn intake
    # ------------------------------------------------------------------

    def mark_dirty(self, record_ids: Iterable[int]) -> list[str]:
        """Declare changed/new records; returns the dirty shard keys.

        Cached entries tagged with any of the records are invalidated
        immediately; the owning shards re-run on the next
        :meth:`assess`.
        """
        ids = sorted({int(record_id) for record_id in record_ids})
        if not ids:
            return []
        # shards are fixed id ranges, so a record (seen by a sweep or a
        # fresh stream arrival) maps to its owning shard arithmetically
        dirty = {self._shard_key(self._shard_index(i)) for i in ids}
        self.cache.invalidate_tags(*(record_key(i) for i in ids))
        self._dirty.update(dirty)
        self.telemetry.metrics.counter(
            "streaming_dirty_records_total").inc(len(ids))
        return sorted(dirty)

    def mark_batch_dirty(self, batch: Iterable[Any]) -> list[str]:
        """`on_batch` hook for :class:`ObservationStream`: marks every
        record of a flushed micro-batch dirty (items may be row dicts or
        objects with the id field as attribute)."""
        ids = []
        for item in batch:
            if isinstance(item, Mapping):
                ids.append(item[self.id_field])
            else:
                ids.append(getattr(item, self.id_field))
        return self.mark_dirty(ids)

    def bump_resource(self, name: str, version: Any = None) -> int:
        """Declare that external resource ``name`` changed (catalogue
        advanced, gazetteer re-issued, function table edited).  Every
        assessor entry depending on it is invalidated and **all** shards
        are marked dirty; reader entries survive, so the next sweep
        re-runs only the resolution stage.  Returns the number of cache
        entries dropped."""
        current = self._resource_versions.get(name, 0)
        self._resource_versions[name] = (
            version if version is not None
            else (current + 1 if isinstance(current, int) else current))
        dropped = self.cache.invalidate_tags(resource_key(name))
        self._dirty.update(self._results)
        return dropped

    @property
    def resource_versions(self) -> dict[str, Any]:
        return dict(self._resource_versions)

    # ------------------------------------------------------------------
    # assessment
    # ------------------------------------------------------------------

    def _shard_workflow(self, shard_key: str,
                        record_keys: list[str]) -> Workflow:
        data_tags = [shard_key, *record_keys]
        workflow = Workflow(
            f"incremental_assessment_{shard_key.replace(':', '_')}",
            description="Shard-wise incremental quality assessment",
        )
        workflow.add_processor(Processor(
            READER, "stream_shard_reader",
            inputs=["rows"],
            outputs=["records", "names", "count"],
            config={
                "cache_tags": data_tags,
                "quality_fields": list(self.quality_fields),
                "name_field": self.name_field,
                "id_field": self.id_field,
            },
        ))
        workflow.add_processor(Processor(
            ASSESSOR, "stream_shard_assessor",
            inputs=["records", "names"],
            outputs=["updates", "quality"],
            config={
                # resource versions are part of the key: bumping one
                # re-keys (and so re-runs) only this stage
                "cache_tags": data_tags + [
                    resource_key(resource)
                    for resource in sorted(self._resource_versions)
                ],
                "resource_versions": dict(self._resource_versions),
            },
        ))
        workflow.map_input("rows", READER, "rows")
        workflow.link(READER, "records", ASSESSOR, "records")
        workflow.link(READER, "names", ASSESSOR, "names")
        workflow.map_output("records", READER, "records")
        workflow.map_output("names", READER, "names")
        workflow.map_output("count", READER, "count")
        workflow.map_output("updates", ASSESSOR, "updates")
        workflow.map_output("quality", ASSESSOR, "quality")
        return workflow

    def _run_shard(self, index: int) -> tuple[dict[str, Any], str] | None:
        """Assess one shard through the engine; ``None`` for an empty
        id range (gaps never produce runs or review rows)."""
        rows = self._rows_for_shard(index)
        shard_key = self._shard_key(index)
        if not rows:
            self._sync_review(index, [])
            return None
        record_keys = [record_key(row[self.id_field]) for row in rows]
        workflow = self._shard_workflow(shard_key, record_keys)
        result = self.engine.run(workflow, {"rows": rows})
        outputs = result.outputs
        outcome = {
            "quality": outputs["quality"],
            "updates": outputs["updates"],
            "names": outputs["names"],
            "count": outputs["count"],
        }
        outcome["digest"] = canonical_digest(outcome)
        self._sync_review(index, outputs["updates"])
        return outcome, result.run_id

    def _sync_review(self, index: int, updates: list[dict]) -> None:
        """Replace the shard's slice of the review queue."""
        low, high = self._shard_bounds(index)
        self.database.delete_where(
            REVIEW_TABLE,
            col("record_id").between(low, high))
        if updates:
            shard_key = self._shard_key(index)
            self.database.bulk_load(REVIEW_TABLE, [
                {
                    "record_id": update["record_id"],
                    "old_name": update["old_name"],
                    "new_name": update["new_name"],
                    "reason": update["reason"],
                    "shard": shard_key,
                    "status": "flagged",
                }
                for update in updates
            ])

    def assess(self, full: bool = False) -> AssessmentResult:
        """One sweep: re-run dirty shards, reuse clean ones, merge.

        ``full=True`` pushes every shard through the engine regardless
        of dirtiness — unchanged shards replay from the result cache
        (``wasCachedFrom`` runs in the provenance store), changed ones
        recompute.  The cold-start sweep is implicitly full.
        """
        metrics = self.telemetry.metrics
        started = time.perf_counter()
        simulated_start = self.engine.clock.now()
        shard_count = self._shard_index(self._max_record_id()) + 1 \
            if self._max_record_id() else 0
        recomputed = reused = 0
        results: dict[str, dict[str, Any]] = {}
        run_ids: list[str] = []
        for index in range(shard_count):
            shard_key = self._shard_key(index)
            if (not full and shard_key not in self._dirty
                    and shard_key in self._results):
                results[shard_key] = self._results[shard_key]
                reused += 1
                continue
            ran = self._run_shard(index)
            recomputed += 1
            if ran is None:
                continue
            outcome, run_id = ran
            results[shard_key] = outcome
            run_ids.append(run_id)
        self._results = results
        self._dirty.clear()
        quality = self._merge_quality(results)
        review = self._review_rows()
        shard_digests = {
            shard_key: outcome["digest"]
            for shard_key, outcome in sorted(results.items())
        }
        wall = time.perf_counter() - started
        metrics.counter("streaming_sweeps_total").inc()
        metrics.counter("streaming_shards_recomputed_total").inc(recomputed)
        if reused:
            metrics.counter("streaming_shards_reused_total").inc(reused)
        # the histogram tracks *simulated* seconds so telemetry
        # snapshots stay byte-deterministic; real elapsed time lives on
        # the returned ``AssessmentResult.wall_seconds``
        metrics.histogram("streaming_sweep_seconds").observe(
            (self.engine.clock.now() - simulated_start).total_seconds())
        metrics.window("streaming_window_accuracy").observe(
            quality["accuracy"])
        metrics.window("streaming_window_completeness").observe(
            quality["completeness"])
        return AssessmentResult(
            quality=quality, review=review, shard_digests=shard_digests,
            run_ids=run_ids, shards_recomputed=recomputed,
            shards_reused=reused, wall_seconds=round(wall, 6))

    def _merge_quality(self,
                       results: dict[str, dict[str, Any]]) -> dict[str, Any]:
        records = sum(outcome["count"] for outcome in results.values())
        outdated = sum(
            outcome["quality"]["outdated"] for outcome in results.values())
        unresolved = sum(
            outcome["quality"]["unresolved"]
            for outcome in results.values())
        weighted = sum(
            outcome["quality"]["completeness"] * outcome["count"]
            for outcome in results.values())
        names: set[str] = set()
        for outcome in results.values():
            names.update(outcome["names"])
        return {
            "records": records,
            "shards": len(results),
            "distinct_names": len(names),
            "completeness": round(weighted / records, 6) if records else 1.0,
            "outdated_records": outdated,
            "unresolved_records": unresolved,
            "accuracy": round(
                1.0 - (outdated + unresolved) / records, 6
            ) if records else 1.0,
        }

    def _review_rows(self) -> list[dict[str, Any]]:
        return self.database.query(REVIEW_TABLE).order_by(
            "record_id").all()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "table": self.table,
            "shard_size": self.shard_size,
            "shards_known": len(self._results),
            "dirty_shards": len(self._dirty),
            "resource_versions": dict(self._resource_versions),
            "cache": self.cache.stats(),
        }
