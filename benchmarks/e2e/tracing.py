"""Layer spans recorded from the benchmark's own code.

:func:`install` wraps the public entry points of each ``repro`` layer
(the :data:`LAYER_WRAPS` table) so every call records a span — name,
start, end, parent and trace id — into a :class:`Recorder`.  Nothing
under ``src/`` changes: the wrappers are set on the classes (and module
functions) at install time and the originals are put back by
:func:`uninstall`.

Each thread keeps its own stack of open spans, so a span's parent is the
span that was open on the same thread when it started.  A span opened on
an empty stack starts a new trace: the benchmark opens one root span per
e2e stage and per re-curation round, and each service request's
``service.submit`` is the root of its own trace.

A wrapped call made while a span of the same name is open on the thread
(``Query.first`` calling ``Query.all``) records no second span: spans
mark layer boundaries, not every internal call.

Per-layer numbers (:func:`layer_metrics`) are totals over the traced
phase.  A span's self time is its duration minus the part of it that its
children's intervals cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import nullcontext
from typing import Any, Callable, Iterable, NamedTuple

__all__ = ["LAYER_METRICS", "LAYER_WRAPS", "NullRecorder", "Recorder",
           "Span", "counter_snapshot", "install", "layer_metrics",
           "self_times", "uninstall", "write_otlp"]


class Span(NamedTuple):
    span_id: int
    parent_id: int | None
    trace_id: int
    name: str
    start: float
    end: float
    thread: int


class Recorder:
    """Collects finished spans in memory; they are written out when the
    benchmark ends (:func:`write_otlp`)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: values the wrappers measure beside spans (rows returned, ...)
        self.counts: dict[str, float] = defaultdict(float)
        #: (unix ns, perf_counter) at creation: maps span times to wall time
        self.epoch = (time.time_ns(), time.perf_counter())
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[tuple[int, int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> str | None:
        """Name of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1][2] if stack else None

    def open(self, name: str) -> tuple[int, int | None, int, str, float]:
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent_id, trace_id = stack[-1][0], stack[-1][1]
        else:
            parent_id, trace_id = None, span_id
        stack.append((span_id, trace_id, name))
        return span_id, parent_id, trace_id, name, time.perf_counter()

    def close(self, token: tuple[int, int | None, int, str, float]) -> None:
        end = time.perf_counter()
        self._stack().pop()
        span_id, parent_id, trace_id, name, start = token
        self.spans.append(Span(span_id, parent_id, trace_id, name, start,
                               end, threading.get_ident()))

    def span(self, name: str) -> "_SpanScope":
        """``with recorder.span(name):`` — a span around benchmark code."""
        return _SpanScope(self, name)

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount


class _SpanScope:
    __slots__ = ("_recorder", "_name", "_token")

    def __init__(self, recorder: Recorder, name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> None:
        self._token = self._recorder.open(self._name)

    def __exit__(self, *exc: Any) -> None:
        self._recorder.close(self._token)


class NullRecorder:
    """Stands in for a :class:`Recorder` in untraced runs."""

    def span(self, name: str) -> nullcontext:
        return nullcontext()


# ----------------------------------------------------------------------
# the wrapped entry points
# ----------------------------------------------------------------------

def _query_span(query: Any, parent: str | None) -> str:
    from repro.storage.snapshot import SnapshotTable

    return ("storage.snapshot_query"
            if isinstance(query._table, SnapshotTable) else "storage.query")


def _species_check_span(checker: Any, parent: str | None) -> str:
    # the re-check's name check is part of the re-check stage
    return ("curation.recheck" if parent == "curation.recheck"
            else "curation.species_check")


def _rows_returned(recorder: Recorder, result: Any) -> None:
    if isinstance(result, list):
        rows = len(result)
    elif isinstance(result, int):
        rows = result
    else:
        rows = int(result is not None)
    recorder.count("storage.rows_returned", rows)


#: (module, attribute path, span name or ``(obj, parent) -> name``,
#: optional ``(recorder, result)`` hook).  Module functions are
#: patched in the module that callers look them up in.
LAYER_WRAPS: tuple[tuple[str, str, Any, Callable | None], ...] = (
    ("repro.storage.query", "Query.all", _query_span, _rows_returned),
    ("repro.storage.query", "Query.first", _query_span, _rows_returned),
    ("repro.storage.query", "Query.count", _query_span, _rows_returned),
    ("repro.storage.query", "Query.values", _query_span, _rows_returned),
    ("repro.storage.database", "Database.update_where",
     "storage.update_where", None),
    ("repro.storage.database", "Database.delete_where",
     "storage.delete_where", None),
    ("repro.storage.database", "Database.bulk_load", "storage.bulk_load",
     None),
    ("repro.storage.database", "Database.insert", "storage.write", None),
    ("repro.storage.database", "Database.update", "storage.write", None),
    ("repro.storage.transactions", "Transaction.commit", "storage.commit",
     None),
    ("repro.workflow.engine", "WorkflowEngine.run", "workflow.run", None),
    ("repro.workflow.cache", "ResultCache.get", "workflow.cache_get", None),
    ("repro.workflow.cache", "ResultCache.put", "workflow.cache_put", None),
    ("repro.taxonomy.catalogue", "CatalogueOfLife.resolve",
     "taxonomy.resolve", None),
    ("repro.curation.cleaning", "MetadataCleaner.run", "curation.cleaning",
     None),
    ("repro.curation.geocoding", "Geocoder.run", "curation.geocoding", None),
    ("repro.curation.enrichment", "EnvironmentalEnricher.run",
     "curation.enrichment", None),
    ("repro.curation.species_check", "SpeciesNameChecker.run",
     _species_check_span, None),
    ("repro.curation.spatial_audit", "SpatialAuditor.run",
     "curation.spatial_audit", None),
    ("repro.curation.pipeline", "CurationPipeline.recheck_names",
     "curation.recheck", None),
    ("repro.provenance.manager", "ProvenanceManager.capture",
     "provenance.capture", None),
    ("repro.provenance.repository", "ProvenanceRepository.store_run",
     "provenance.store_run", None),
    ("repro.provenance.store.store", "ProvenanceStore.ingest_graph",
     "provenance.ingest", None),
    ("repro.provenance.store.store", "ProvenanceStore.seal",
     "provenance.seal", None),
    ("repro.provenance.store.store", "ProvenanceStore.runs_for_artifact",
     "provenance.lineage", None),
    ("repro.provenance.store.store", "ProvenanceStore.ancestors",
     "provenance.lineage", None),
    ("repro.provenance.store.store", "ProvenanceStore.descendants",
     "provenance.lineage", None),
    ("repro.archive.vault", "PreservationVault.ingest", "archive.ingest",
     None),
    ("repro.archive.vault", "PreservationVault.verify", "archive.verify",
     None),
    ("repro.archive.replicas", "ReplicaGroup.put", "archive.put", None),
    ("repro.core.manager", "DataQualityManager.assess_species_check_run",
     "core.assess", None),
    ("repro.linkeddata.rocrate", "build_run_crate", "linkeddata.crate",
     None),
    ("repro.linkeddata.rocrate", "crate_to_json", "linkeddata.crate", None),
    ("repro.linkeddata.rocrate", "validate_crate", "linkeddata.crate", None),
    ("repro.casestudy.fnjv", "generate_collection", "sounds.generate", None),
    ("repro.service.facade", "PreservationService.submit", "service.submit",
     None),
    ("repro.service.admission", "AdmissionController.acquire",
     "service.admission", None),
    ("repro.streaming.stream", "ObservationStream.flush", "streaming.flush",
     None),
    ("repro.streaming.incremental", "IncrementalCurator.mark_dirty",
     "streaming.mark_dirty", None),
    ("repro.streaming.incremental", "IncrementalCurator.assess",
     "streaming.assess", None),
)


def _wrap(recorder: Recorder, original: Callable, name: Any,
          hook: Callable | None) -> Callable:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        parent = recorder.current()
        span_name = name(args[0], parent) if callable(name) else name
        if span_name == parent:
            return original(*args, **kwargs)
        token = recorder.open(span_name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(token)
        if hook is not None:
            hook(recorder, result)
        return result
    return wrapper


def _owner(module_name: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def install(recorder: Recorder,
            wraps: Iterable[tuple[str, str, Any, Callable | None]]
            = LAYER_WRAPS) -> list[tuple[Any, str, Any]]:
    """Wrap every entry point; returns what :func:`uninstall` restores."""
    installed: list[tuple[Any, str, Any]] = []
    try:
        for module_name, path, name, hook in wraps:
            owner, attribute = _owner(module_name, path)
            original = owner.__dict__[attribute]
            setattr(owner, attribute, _wrap(recorder, original, name, hook))
            installed.append((owner, attribute, original))
    except BaseException:  # noqa: BLE001 - undo partial patching, re-raise
        uninstall(installed)
        raise
    return installed


def uninstall(installed: list[tuple[Any, str, Any]]) -> None:
    """Put the original functions back, last wrapped first."""
    for owner, attribute, original in reversed(installed):
        setattr(owner, attribute, original)
    installed.clear()


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

def _covered(start: float, end: float,
             intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            covered += high - low
            cursor = high
    return covered


def self_times(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """``{span name: {"calls", "self_s", "total_s"}}``."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start, span.end))
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for span in spans:
        duration = span.end - span.start
        entry = totals[span.name]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - _covered(
            span.start, span.end, children.get(span.span_id, []))
    return dict(totals)


#: telemetry counter families read before and after a traced phase
_COUNTERS = {
    "rows_scanned": ("storage_rows_scanned_total", {}),
    "conflicts": ("storage_transaction_conflicts_total", {}),
    "cache_invalidations": ("cache_tag_invalidations_total", {}),
    "memo_hits": ("taxonomy_cache_hits_total",
                  {"cache": "catalogue_resolve"}),
    "lookup_calls": ("service_calls_total",
                     {"service": "catalogue_of_life"}),
    "lookup_failures": ("service_calls_total",
                        {"service": "catalogue_of_life",
                         "outcome": "failure"}),
    "lookup_retries": ("service_retries_total",
                       {"service": "catalogue_of_life"}),
    "conflict_retries": ("service_conflict_retries_total", {}),
    "rejected": ("service_requests_total", {"outcome": "rejected"}),
    "cache_hits": ("engine_cache_hits_total", {}),
    "cache_misses": ("engine_cache_misses_total", {}),
    "archived_bytes": ("vault_bytes_ingested_total", {}),
    "shards_reused": ("streaming_shards_reused_total", {}),
    "shards_recomputed": ("streaming_shards_recomputed_total", {}),
}


def counter_snapshot() -> dict[str, float]:
    """Current totals of the telemetry counters the layer metrics use
    (series whose labels include the given ones are summed)."""
    from repro.telemetry import get_telemetry

    metrics = get_telemetry().metrics
    snapshot = {}
    for key, (family, labels) in _COUNTERS.items():
        snapshot[key] = sum(
            series.value for series in metrics.series(family)
            if set(labels.items()) <= set(series.labels))
    return snapshot


#: every per-layer metric, with its unit, in report order
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("storage.query.calls", "count"),
    ("storage.query.self_s", "s"),
    ("storage.snapshot_query.calls", "count"),
    ("storage.snapshot_query.self_s", "s"),
    ("storage.rows_scanned_per_row", "ratio"),
    ("storage.update_where.calls", "count"),
    ("storage.update_where.self_s", "s"),
    ("storage.delete_where.calls", "count"),
    ("storage.delete_where.self_s", "s"),
    ("storage.bulk_load.calls", "count"),
    ("storage.bulk_load.self_s", "s"),
    ("storage.write.calls", "count"),
    ("storage.write.self_s", "s"),
    ("storage.commit.self_s", "s"),
    ("storage.conflicts", "count"),
    ("workflow.run.calls", "count"),
    ("workflow.run.self_s", "s"),
    ("workflow.cache_get.calls", "count"),
    ("workflow.cache_get.self_s", "s"),
    ("workflow.cache_put.self_s", "s"),
    ("workflow.cache_hit_ratio", "ratio"),
    ("workflow.cache_invalidations", "count"),
    ("taxonomy.resolve.calls", "count"),
    ("taxonomy.resolve.self_s", "s"),
    ("taxonomy.memo_hit_ratio", "ratio"),
    ("taxonomy.lookup.calls", "count"),
    ("taxonomy.lookup.failures", "count"),
    ("taxonomy.lookup.retries", "count"),
    ("curation.cleaning.self_s", "s"),
    ("curation.geocoding.self_s", "s"),
    ("curation.enrichment.self_s", "s"),
    ("curation.species_check.self_s", "s"),
    ("curation.spatial_audit.self_s", "s"),
    ("curation.recheck.self_s", "s"),
    ("provenance.capture.calls", "count"),
    ("provenance.capture.self_s", "s"),
    ("provenance.store_run.self_s", "s"),
    ("provenance.ingest.self_s", "s"),
    ("provenance.seal.calls", "count"),
    ("provenance.seal.self_s", "s"),
    ("provenance.lineage.calls", "count"),
    ("provenance.lineage.self_s", "s"),
    ("archive.ingest.self_s", "s"),
    ("archive.put.calls", "count"),
    ("archive.put.self_s", "s"),
    ("archive.bytes_per_s", "B/s"),
    ("archive.verify.calls", "count"),
    ("archive.verify.self_s", "s"),
    ("core.assess.self_s", "s"),
    ("linkeddata.crate.self_s", "s"),
    ("sounds.generate.self_s", "s"),
    ("service.submit.calls", "count"),
    ("service.submit.self_s", "s"),
    ("service.admission_wait_s", "s"),
    ("service.conflict_retries", "count"),
    ("service.rejected", "count"),
    ("streaming.flush.calls", "count"),
    ("streaming.flush.self_s", "s"),
    ("streaming.mark_dirty.self_s", "s"),
    ("streaming.shard_reuse_ratio", "ratio"),
    ("streaming.assess.calls", "count"),
    ("streaming.assess.self_s", "s"),
    ("trace_overhead", "ratio"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: Recorder, delta: dict[str, float],
                  trace_overhead: float) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value for one traced phase (0 where
    the workload never entered the layer); ``delta`` is the change in
    :func:`counter_snapshot` over the phase."""
    times = self_times(recorder.spans)
    values: dict[str, float] = {}
    for name, _ in LAYER_METRICS:
        span, _, field = name.rpartition(".")
        if field in ("calls", "self_s") and span:
            values[name] = times.get(span, {}).get(field, 0)
    resolve_calls = times.get("taxonomy.resolve", {}).get("calls", 0)
    lookups = delta["cache_hits"] + delta["cache_misses"]
    shards = delta["shards_reused"] + delta["shards_recomputed"]
    values.update({
        "storage.rows_scanned_per_row": _ratio(
            delta["rows_scanned"], recorder.counts["storage.rows_returned"]),
        "storage.conflicts": delta["conflicts"],
        "workflow.cache_hit_ratio": _ratio(delta["cache_hits"], lookups),
        "workflow.cache_invalidations": delta["cache_invalidations"],
        "taxonomy.memo_hit_ratio": _ratio(delta["memo_hits"], resolve_calls),
        "taxonomy.lookup.calls": delta["lookup_calls"],
        "taxonomy.lookup.failures": delta["lookup_failures"],
        "taxonomy.lookup.retries": delta["lookup_retries"],
        "archive.bytes_per_s": _ratio(
            delta["archived_bytes"],
            times.get("archive.put", {}).get("total_s", 0.0)),
        "service.admission_wait_s": times.get(
            "service.admission", {}).get("total_s", 0.0),
        "service.conflict_retries": delta["conflict_retries"],
        "service.rejected": delta["rejected"],
        "streaming.shard_reuse_ratio": _ratio(delta["shards_reused"],
                                              shards),
        "trace_overhead": trace_overhead,
    })
    return values


def write_otlp(recorder: Recorder, path: str) -> None:
    """Write the recorded spans to ``path`` as OTLP-shaped JSON
    (``resourceSpans``), one span at a time: a paper-scale pass crosses
    a layer boundary some 400,000 times."""
    unix_ns, perf = recorder.epoch

    def nanos(t: float) -> int:
        return unix_ns + int((t - perf) * 1e9)

    with open(path, "w", encoding="utf-8") as out:
        out.write('{"resourceSpans":[{"resource":{"attributes":[{"key":'
                  '"service.name","value":{"stringValue":'
                  '"repro-e2e-benchmark"}}]},"scopeSpans":[{"scope":'
                  '{"name":"benchmarks.e2e"},"spans":[')
        for index, span in enumerate(sorted(recorder.spans)):
            out.write(("," if index else "") + json.dumps({
                "traceId": f"{span.trace_id:032x}",
                "spanId": f"{span.span_id:016x}",
                "parentSpanId": ("" if span.parent_id is None
                                 else f"{span.parent_id:016x}"),
                "name": span.name,
                "kind": 1,
                "startTimeUnixNano": nanos(span.start),
                "endTimeUnixNano": nanos(span.end),
            }, separators=(",", ":")))
        out.write("]}]}]}\n")
