"""The metric catalog and the report it drives."""

from repro.cli import main
from repro.telemetry import Telemetry
from repro.telemetry.report import CATALOG, render_report

KINDS = {"counter", "gauge", "histogram", "window"}


def _panel(report: str, title: str) -> list[str]:
    """The row lines of one panel of a rendered report."""
    lines = report.splitlines()
    start = lines.index(title) + 2
    end = next((i for i in range(start, len(lines)) if not lines[i]),
               len(lines))
    return lines[start:end]


class TestCatalog:
    def test_names_unique_and_kinds_known(self):
        names = [spec.name for spec in CATALOG]
        assert len(names) == len(set(names))
        assert {spec.kind for spec in CATALOG} <= KINDS

    def test_nine_panels_in_report_order(self):
        panels = list(dict.fromkeys(spec.panel for spec in CATALOG))
        assert panels == [
            "engine scheduling & caches", "curation pipeline", "storage",
            "preservation vault", "federated vault", "provenance store",
            "static analysis", "multi-tenant service",
            "streaming curation",
        ]

    def test_every_family_a_full_run_records_is_catalogued(
            self, isolated_telemetry, capsys):
        # covers families named through helpers (storage's per-table
        # counters), which the HY002 lint rule cannot see statically
        main(["--seed", "7", "stats", "--records", "120", "--species",
              "30", "--outdated", "4", "--vault", "--service",
              "--stream", "--warm-cache"])
        capsys.readouterr()
        kinds = {spec.name: spec.kind for spec in CATALOG}
        for instrument in isolated_telemetry.metrics:
            assert kinds.get(instrument.name) \
                == instrument.to_dict()["type"], instrument.series


class TestRender:
    def test_panel_lists_only_live_rows_in_catalog_order(self):
        telemetry = Telemetry()
        metrics = telemetry.metrics
        metrics.counter("vault_corruptions_repaired_total").inc()
        metrics.counter("vault_corruptions_found_total").inc(2)
        metrics.counter("vault_migrations_total")  # never incremented
        metrics.gauge("vault_replica_lag", replica="a").set(0)
        rows = _panel(telemetry.render_report(), "preservation vault")
        assert [row.split()[:2] for row in rows] == [
            ["corruptions", "found"], ["corruptions", "repaired"],
            ["replica", "lag,"],
        ]
        assert rows[0].endswith(" 2")
        assert rows[2].endswith(" 0")

    def test_panel_absent_without_live_rows(self):
        telemetry = Telemetry()
        telemetry.metrics.counter("federation_reads_total")
        report = telemetry.render_report()
        assert "federated vault" not in report
        telemetry.metrics.counter("federation_reads_total").inc()
        assert "federated vault" in telemetry.render_report()

    def test_breakdown_by_label(self):
        telemetry = Telemetry()
        metrics = telemetry.metrics
        metrics.counter("service_requests_total", op="query",
                        outcome="ok").inc(3)
        metrics.counter("service_requests_total", op="ingest",
                        outcome="ok").inc(2)
        metrics.counter("service_requests_total", op="query",
                        outcome="rejected").inc()
        [row] = [row for row in _panel(telemetry.render_report(),
                                       "multi-tenant service")
                 if "requests" in row]
        assert row.split(None, 1)[1].strip() == "6 (5 ok, 1 rejected)"

    def test_histogram_row_pools_series(self):
        telemetry = Telemetry()
        metrics = telemetry.metrics
        metrics.histogram("service_request_seconds", op="query").observe(1)
        metrics.histogram("service_request_seconds", op="query").observe(2)
        metrics.histogram("service_request_seconds", op="audit").observe(6)
        [row] = _panel(telemetry.render_report(), "multi-tenant service")
        assert row.endswith("n=3, mean 3, max 6")

    def test_raw_sections_keep_every_series(self):
        telemetry = Telemetry()
        telemetry.metrics.counter("storage_rows_inserted_total",
                                  table="t").inc(4)
        telemetry.metrics.counter("uncatalogued_total").inc()
        report = render_report(telemetry.snapshot())
        counters = _panel(report, "counters")
        assert [row.split()[0] for row in counters] == [
            "storage_rows_inserted_total{table=t}", "uncatalogued_total",
        ]
