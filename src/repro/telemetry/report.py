"""The metric catalog, snapshot rendering and the quality bridge.

:data:`CATALOG` declares every metric family the system records: its
instrument kind, the report panel it belongs to and the row label
operators read.  :func:`render_report` turns a :meth:`Telemetry.snapshot`
dict into the text behind ``repro stats`` — raw series first, then one
loop over the catalog that prints each panel's live rows — so a family
declared here is on the report by construction, and the HY002 lint rule
flags any family recorded in code but missing from the catalog.

:func:`quality_signals` distills the same snapshot into the handful of
numbers the Data Quality Manager consumes as an *external source* — the
paper's loop between operations and quality assessment: the Catalogue
processor is annotated ``Q(availability): 0.9`` because real runs fail,
and here the failures observed by the runtime feed straight back into
the assessment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

__all__ = ["CATALOG", "MetricSpec", "render_report", "quality_signals"]

_RULE = "-" * 64


@dataclass(frozen=True)
class MetricSpec:
    """One metric family as the report shows it.

    ``kind`` is the instrument type (``counter``, ``gauge``,
    ``histogram`` or ``window``); ``by`` names a label whose values the
    row breaks its total down by.
    """

    name: str
    kind: str
    panel: str
    description: str
    by: str | None = None


def _panel(title: str, *rows: tuple[str, ...]) -> tuple[MetricSpec, ...]:
    return tuple(MetricSpec(name, kind, title, description, *by)
                 for name, kind, description, *by in rows)


#: Every metric family, grouped by panel in report order.  Counters sum
#: over their series, gauges show their maximum, histograms and windows
#: their sample count, mean and maximum.
CATALOG: tuple[MetricSpec, ...] = (
    *_panel(
        "engine scheduling & caches",
        ("workflow_runs_total", "counter", "workflow runs", "status"),
        ("engine_waves_total", "counter", "waves scheduled"),
        ("engine_parallel_dispatch_total", "counter",
         "parallel dispatches"),
        ("workflow_processor_runs_total", "counter", "processors run"),
        ("workflow_processor_failures_total", "counter",
         "processor failures"),
        ("workflow_processor_seconds", "histogram",
         "processor duration (simulated s)"),
        ("workflow_iteration_items_total", "counter", "iteration items"),
        ("workflow_iteration_fanout", "histogram", "iteration fan-out"),
        ("engine_cache_hits_total", "counter", "result cache hits"),
        ("engine_cache_misses_total", "counter", "result cache misses"),
        ("cache_store_skipped_total", "counter",
         "result cache stores skipped"),
        ("cache_tag_invalidations_total", "counter",
         "cache entries dropped by tag"),
        ("engine_listener_errors_total", "counter", "listener errors"),
        ("taxonomy_cache_hits_total", "counter", "taxonomy memo hits",
         "cache"),
        ("service_calls_total", "counter", "catalogue service calls",
         "outcome"),
        ("service_retries_total", "counter", "catalogue service retries"),
        ("service_call_seconds", "histogram",
         "catalogue call latency (simulated s)"),
        ("service_measured_availability", "gauge",
         "catalogue measured availability"),
    ),
    *_panel(
        "curation pipeline",
        ("curation_stage_runs_total", "counter", "stage runs"),
        ("curation_stage_records_total", "counter", "records processed"),
        ("curation_stage_seconds", "histogram", "stage duration (s)"),
    ),
    *_panel(
        "storage",
        ("storage_rows_inserted_total", "counter", "rows inserted"),
        ("storage_rows_updated_total", "counter", "rows updated"),
        ("storage_rows_deleted_total", "counter", "rows deleted"),
        ("storage_bulk_batches_total", "counter", "bulk-load batches"),
        ("storage_indexes_built_total", "counter", "indexes built",
         "kind"),
        ("storage_planner_decisions_total", "counter",
         "planner decisions"),
        ("storage_index_hits_total", "counter", "index hits"),
        ("storage_full_scans_total", "counter", "full scans"),
        ("storage_rows_scanned_total", "counter", "rows scanned"),
        ("storage_index_selectivity", "gauge",
         "last index selectivity (max)"),
        ("storage_snapshots_total", "counter", "MVCC snapshots taken"),
        ("storage_transaction_conflicts_total", "counter",
         "write conflicts"),
        ("storage_rollback_failures_total", "counter",
         "rollback failures"),
        ("storage_abandoned_transactions_total", "counter",
         "abandoned transactions reaped"),
    ),
    *_panel(
        "preservation vault",
        ("vault_objects_ingested_total", "counter", "objects ingested"),
        ("vault_bytes_ingested_total", "counter", "bytes ingested"),
        ("vault_objects_deduplicated_total", "counter",
         "objects deduplicated"),
        ("vault_object_bytes", "histogram", "object size (bytes)"),
        ("vault_audit_sweeps_total", "counter", "audit sweeps"),
        ("vault_objects_audited_total", "counter", "objects audited"),
        ("vault_bytes_audited_total", "counter", "bytes audited"),
        ("vault_corruptions_found_total", "counter", "corruptions found"),
        ("vault_corruptions_repaired_total", "counter",
         "corruptions repaired"),
        ("vault_migrations_total", "counter", "format migrations"),
        ("vault_replica_lag", "gauge", "replica lag, objects (max)"),
    ),
    *_panel(
        "federated vault",
        ("federation_objects_stored_total", "counter", "objects placed"),
        ("federation_fragments_stored_total", "counter",
         "fragments stored"),
        ("federation_bytes_stored_total", "counter", "bytes stored"),
        ("federation_reads_total", "counter", "objects read back"),
        ("federation_sync_runs_total", "counter", "syncs"),
        ("federation_sync_repairs_total", "counter",
         "fragments repaired by sync"),
        ("federation_sync_unrecoverable_total", "counter",
         "unrecoverable objects"),
        ("federation_audit_scrubs_total", "counter", "sampling scrubs"),
        ("federation_objects_scrubbed_total", "counter",
         "objects scrubbed"),
        ("federation_corruptions_found_total", "counter",
         "rotten fragments found"),
        ("federation_rebuilt_fragments_total", "counter",
         "fragments rebuilt after site loss"),
        ("federation_objects", "gauge", "objects now"),
        ("federation_sites", "gauge", "sites now"),
        ("federation_sites_available", "gauge", "sites available now"),
    ),
    *_panel(
        "provenance store",
        ("provstore_runs_ingested_total", "counter", "runs ingested"),
        ("provstore_nodes_ingested_total", "counter", "nodes ingested"),
        ("provstore_edges_ingested_total", "counter", "edges ingested"),
        ("provstore_reingest_skipped_total", "counter",
         "re-ingests skipped"),
        ("provstore_sealed_segments", "gauge", "sealed segments now"),
        ("provstore_tail_runs", "gauge", "tail runs now"),
        ("provstore_pool_strings", "gauge", "interned strings now"),
        ("provstore_seals_total", "counter", "segment seal operations"),
        ("provstore_queries_total", "counter", "lineage queries"),
        ("provstore_truncations_total", "counter",
         "budget-truncated queries"),
    ),
    *_panel(
        "static analysis",
        ("analysis_runs_total", "counter", "rule passes"),
        ("analysis_diagnostics_total", "counter", "diagnostics",
         "severity"),
        ("analysis_suppressed_total", "counter", "baseline-suppressed"),
        ("analysis_code_runs_total", "counter", "source analyzer runs"),
        ("analysis_code_files_total", "counter", "source files analyzed"),
        ("analysis_code_functions_total", "counter",
         "functions analyzed"),
        ("analysis_code_findings_total", "counter", "source findings"),
    ),
    *_panel(
        "multi-tenant service",
        ("service_requests_total", "counter", "requests", "outcome"),
        ("service_request_seconds", "histogram", "request latency (s)"),
        ("service_admission_rejected_total", "counter",
         "shed by admission", "reason"),
        ("service_quota_rejected_total", "counter", "shed by quota",
         "reason"),
        ("service_errors_total", "counter", "operation errors"),
        ("service_unexpected_errors_total", "counter",
         "unexpected errors"),
        ("service_conflict_retries_total", "counter",
         "ingest conflict retries"),
        ("service_in_flight", "gauge", "in flight now"),
        ("service_queue_depth", "gauge", "queue depth now"),
    ),
    *_panel(
        "streaming curation",
        ("streaming_ingested_total", "counter", "records ingested"),
        ("streaming_batches_total", "counter", "micro-batches"),
        ("streaming_rejected_total", "counter",
         "rejected by backpressure"),
        ("streaming_buffer_depth", "gauge", "buffer depth now"),
        ("streaming_sweeps_total", "counter", "assessment sweeps"),
        ("streaming_shards_recomputed_total", "counter",
         "shards recomputed"),
        ("streaming_shards_reused_total", "counter", "shards reused"),
        ("streaming_sweep_seconds", "histogram", "sweep duration (s)"),
        ("streaming_dirty_records_total", "counter",
         "dirty records observed"),
        ("streaming_rechecks_total", "counter", "rechecks enqueued",
         "reason"),
        ("streaming_window_accuracy", "window", "accuracy lately"),
        ("streaming_window_completeness", "window",
         "completeness lately"),
        ("streaming_window_batch_records", "window",
         "batch records lately"),
    ),
)


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:,.4f}".rstrip("0").rstrip(".")
    return f"{value:,}"


def _labels(series: str) -> dict[str, str]:
    """The label set of a ``name{key=value,...}`` series string."""
    if "{" not in series:
        return {}
    inner = series.split("{", 1)[1].rstrip("}")
    return dict(part.split("=", 1) for part in inner.split(","))


def _live(data: Mapping[str, Any]) -> bool:
    """Has this series observed anything?  (Gauges always have.)"""
    kind = data.get("type")
    if kind == "counter":
        return bool(data.get("value"))
    return kind == "gauge" or bool(data.get("count"))


def _summary(kind: str, series: list[Mapping[str, Any]]) -> str:
    """One value for a family's live series: see :data:`CATALOG`."""
    if kind == "counter":
        return _fmt(sum(data["value"] for data in series))
    if kind == "gauge":
        return _fmt(max(data["value"] for data in series))
    count = sum(data["count"] for data in series)
    mean = sum(data["mean"] * data["count"] for data in series) / count
    return (f"n={_fmt(count)}, mean {_fmt(mean)},"
            f" max {_fmt(max(data['max'] for data in series))}")


def _row(spec: MetricSpec, family: Mapping[str, Any]) -> str | None:
    """The catalog row for one family's ``{series: data}``, or ``None``
    while none of its series has observed anything."""
    live = {
        series: data for series, data in family.items()
        if data.get("type") == spec.kind and _live(data)
    }
    if not live:
        return None
    text = _summary(spec.kind, list(live.values()))
    if spec.by is not None:
        groups: dict[str, list[Mapping[str, Any]]] = {}
        for series, data in live.items():
            value = _labels(series).get(spec.by, "unknown")
            groups.setdefault(value, []).append(data)
        text += " (" + ", ".join(
            f"{_summary(spec.kind, groups[value])} {value}"
            for value in sorted(groups)
        ) + ")"
    return f"  {spec.description:<40} {text}"


#: The raw per-series sections: (instrument kind, heading, row format).
_RAW_SECTIONS = (
    ("histogram", "histograms (count / mean / max, seconds or items)",
     lambda series, data: f"  {series:<48} {_fmt(data['count']):>6}"
                          f" {_fmt(data['mean']):>10}"
                          f" {_fmt(data['max']):>10}"),
    ("counter", "counters",
     lambda series, data: f"  {series:<54} {_fmt(data['value']):>8}"),
    ("gauge", "gauges",
     lambda series, data: f"  {series:<54} {_fmt(data['value']):>8}"),
    ("window", "sliding windows (in-window / mean / last)",
     lambda series, data: f"  {series:<44} {_fmt(data['count']):>4}"
                          f"/{data['size']} {_fmt(data['mean']):>9}"
                          f" {_fmt(data['last']):>9}"),
)


def render_report(snapshot: Mapping[str, Any]) -> str:
    """A human-readable observability panel from one snapshot."""
    metrics: Mapping[str, Any] = snapshot.get("metrics", {})
    lines: list[str] = ["Telemetry report", "=" * 64]

    for kind, heading, fmt in _RAW_SECTIONS:
        rows = [fmt(series, metrics[series]) for series in sorted(metrics)
                if metrics[series].get("type") == kind
                and _live(metrics[series])]
        if rows:
            lines.extend(["", heading, _RULE, *rows])

    spans = snapshot.get("spans", {})
    span_list = spans.get("spans", ())
    if span_list:
        by_name: dict[str, list[float]] = {}
        for span in span_list:
            duration = span.get("duration_seconds")
            if duration is not None:
                by_name.setdefault(span["name"], []).append(duration)
        lines.append("")
        lines.append("spans (count / total simulated seconds)")
        lines.append(_RULE)
        for name in sorted(by_name):
            durations = by_name[name]
            lines.append(
                f"  {name:<54} {len(durations):>4}"
                f" {_fmt(sum(durations)):>8}"
            )
        if spans.get("dropped_spans"):
            lines.append(f"  (dropped {spans['dropped_spans']} spans)")

    events = snapshot.get("events", {})
    if events.get("recorded"):
        lines.append("")
        lines.append(
            f"events: {events['recorded']} recorded"
            + (f", {events['dropped']} dropped" if events.get("dropped")
               else "")
        )
        last_run = None
        for entry in reversed(events.get("events", ())):
            if entry.get("event") == "run_finished":
                last_run = entry
                break
        if last_run is not None:
            lines.append(
                f"  last run: {last_run.get('run_id')} "
                f"({last_run.get('workflow')}) -> {last_run.get('status')}"
                f", {last_run.get('failed_processors', 0)} failed "
                f"processor(s)"
            )

    families: dict[str, dict[str, Any]] = {}
    for series, data in metrics.items():
        families.setdefault(series.split("{", 1)[0], {})[series] = data
    for panel in dict.fromkeys(spec.panel for spec in CATALOG):
        rows = [row for spec in CATALOG if spec.panel == panel
                if (row := _row(spec, families.get(spec.name, {})))
                is not None]
        if rows:
            lines.extend(["", panel, _RULE, *rows])
    return "\n".join(lines)


def quality_signals(snapshot: Mapping[str, Any]) -> dict[str, Any]:
    """Distill a snapshot into quality-manager inputs.

    Returns (every key optional — absent when unobserved):

    * ``measured_availability`` — per-service observed success fraction;
    * ``run_counts`` — runs by final status;
    * ``degraded_fraction`` / ``failure_fraction`` — of finished runs;
    * ``processor_seconds`` — per-processor duration stats.
    """
    metrics: Mapping[str, Any] = snapshot.get("metrics", {})
    signals: dict[str, Any] = {}

    availability: dict[str, float] = {}
    for series, data in metrics.items():
        if series.startswith("service_measured_availability{"):
            label = series.split("{", 1)[1].rstrip("}")
            service = _labels(series).get("service", label)
            availability[service] = data["value"]
    if availability:
        signals["measured_availability"] = availability

    run_counts: dict[str, float] = {}
    for series, data in metrics.items():
        if series.startswith("workflow_runs_total{"):
            status = _labels(series).get("status", "unknown")
            run_counts[status] = run_counts.get(status, 0) + data["value"]
    if run_counts:
        signals["run_counts"] = run_counts
        total = sum(run_counts.values())
        if total:
            signals["degraded_fraction"] = (
                run_counts.get("degraded", 0) / total
            )
            signals["failure_fraction"] = run_counts.get("failed", 0) / total

    processor_seconds: dict[str, dict[str, Any]] = {}
    for series, data in metrics.items():
        if (series.startswith("workflow_processor_seconds{")
                and data.get("count")):
            label = series.split("{", 1)[1].rstrip("}")
            processor = _labels(series).get("processor", label)
            processor_seconds[processor] = {
                "count": data["count"],
                "mean": data["mean"],
                "max": data["max"],
                "sum": data["sum"],
            }
    if processor_seconds:
        signals["processor_seconds"] = processor_seconds
    return signals
