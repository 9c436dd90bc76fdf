"""The vault facade, end to end — the ISSUE's acceptance scenarios."""

import pytest

from repro.archive import PreservationVault
from repro.archive.fixity import AUDIT_WORKFLOW, REPAIR_WORKFLOW
from repro.archive.migration import MIGRATION_WORKFLOW
from repro.core.preservation import PreservationLevel, PreservationPolicy
from repro.errors import ArchiveError
from repro.sounds.generator import CollectionConfig, generate_collection
from repro.telemetry import Telemetry


@pytest.fixture()
def vault(provenance, vault_telemetry):
    return PreservationVault("testvault", replicas=3,
                             provenance=provenance,
                             telemetry=vault_telemetry)


class TestConstruction:
    def test_needs_a_replica(self):
        with pytest.raises(ArchiveError):
            PreservationVault(replicas=0)

    def test_store_names_derive_from_vault_name(self, vault):
        assert [s.name for s in vault.group.stores] == [
            "testvault-r0", "testvault-r1", "testvault-r2"]
        assert vault.group.quorum == 2


class TestIngestAcrossLevels:
    def test_levels_archive_what_table_i_promises(self, tiny_collection,
                                                  provenance,
                                                  vault_telemetry):
        """Level 1 stores the package alone; level 2 each record's
        simplified projection; levels 3-4 the full metadata rows."""
        per_level = {}
        for level in PreservationLevel:
            vault = PreservationVault(f"lvl{int(level)}",
                                      provenance=provenance,
                                      telemetry=vault_telemetry)
            per_level[level] = vault.ingest(tiny_collection, level)

        assert per_level[PreservationLevel.DOCUMENTATION].records == 0
        for level in (PreservationLevel.SIMPLIFIED_DATA,
                      PreservationLevel.ANALYSIS_LEVEL,
                      PreservationLevel.FULL_REPRODUCTION):
            assert per_level[level].records == len(tiny_collection)
        # one package object + one object per preserved record
        assert per_level[PreservationLevel.DOCUMENTATION].new_objects == 1
        assert per_level[PreservationLevel.ANALYSIS_LEVEL].new_objects == 7

    def test_manifest_rows_per_object(self, vault, tiny_collection):
        vault.ingest(tiny_collection, PreservationLevel.ANALYSIS_LEVEL)
        assert len(vault.manifest(kind="package")) == 1
        records = vault.manifest(kind="record")
        assert len(records) == len(tiny_collection)
        assert {row["format"] for row in records} == {
            "magnetic tape", "ATRAC", "WAV", "MP3"}
        assert vault.object_count() == 7

    def test_reingest_deduplicates_everything(self, vault,
                                              tiny_collection):
        first = vault.ingest(tiny_collection,
                             PreservationLevel.ANALYSIS_LEVEL)
        second = vault.ingest(tiny_collection,
                              PreservationLevel.ANALYSIS_LEVEL)
        assert first.new_objects == 7 and first.deduplicated == 0
        assert second.new_objects == 0 and second.deduplicated == 7
        assert vault.object_count() == 7

    def test_ingest_counters(self, vault, tiny_collection,
                             vault_telemetry):
        report = vault.ingest(tiny_collection,
                              PreservationLevel.SIMPLIFIED_DATA)
        metrics = vault_telemetry.snapshot()["metrics"]
        ingested = sum(
            data["value"] for series, data in metrics.items()
            if series.startswith("vault_objects_ingested_total"))
        assert ingested == report.new_objects == 7
        assert metrics["vault_bytes_ingested_total"]["value"] == \
            report.logical_bytes


class TestCorruptionLifecycle:
    def test_ingest_corrupt_audit_repair_with_provenance(
            self, vault, tiny_collection, provenance):
        """The acceptance scenario: inject corruption into one replica,
        audit detects it, auto-repair from a healthy replica, and both
        the audit and the repair are OPM graphs in the repository."""
        vault.ingest(tiny_collection, PreservationLevel.ANALYSIS_LEVEL)
        damaged = vault.inject_corruption(store_index=1)

        audit = vault.verify()
        assert not audit.healthy
        assert audit.corrupt == [(damaged, "testvault-r1")]
        assert audit.missing == []

        repair = vault.repair(audit)
        assert len(repair.actions) == 1
        action = repair.actions[0]
        assert action.digest == damaged
        assert action.store == "testvault-r1"
        assert action.reason == "corrupt"
        assert action.source in ("testvault-r0", "testvault-r2")

        assert vault.verify().healthy

        audit_runs = provenance.run_ids(AUDIT_WORKFLOW)
        repair_runs = provenance.run_ids(REPAIR_WORKFLOW)
        assert len(audit_runs) == 2 and len(repair_runs) == 1
        audit_graph = provenance.graph_for(audit.run_id)
        assert audit_graph.has_node(f"cas:{damaged}")
        used = {e.cause: e.role for e in audit_graph.edges("used")}
        assert used[f"cas:{damaged}"] == "flagged"
        repair_graph = provenance.graph_for(repair.run_id)
        derivations = [(e.effect, e.cause)
                       for e in repair_graph.edges("wasDerivedFrom")]
        assert (f"replica:testvault-r1/{damaged}",
                f"cas:{damaged}") in derivations

    def test_repair_without_report_audits_first(self, vault,
                                                tiny_collection):
        vault.ingest(tiny_collection, PreservationLevel.ANALYSIS_LEVEL)
        vault.inject_corruption(store_index=2)
        repair = vault.repair()  # no cached audit: runs its own sweep
        assert len(repair.actions) == 1
        assert vault.verify().healthy

    def test_corruption_counters(self, vault, tiny_collection,
                                 vault_telemetry):
        vault.ingest(tiny_collection, PreservationLevel.ANALYSIS_LEVEL)
        vault.inject_corruption()
        vault.repair(vault.verify())
        status = vault.status()
        assert status["counters"]["corruptions_found"] == 1
        assert status["counters"]["corruptions_repaired"] == 1
        metrics = vault_telemetry.snapshot()["metrics"]
        assert metrics[
            'vault_corruptions_found_total{reason=corrupt}']["value"] == 1

    def test_inject_needs_something_archived(self, vault):
        with pytest.raises(ArchiveError):
            vault.inject_corruption()


class TestMigrationLifecycle:
    def test_at_risk_flags_closed_era_formats(self, vault,
                                              tiny_collection):
        vault.ingest(tiny_collection, PreservationLevel.ANALYSIS_LEVEL)
        at_risk = vault.at_risk(horizon_year=2014)
        assert {row["format"] for row in at_risk} == {
            "magnetic tape", "ATRAC"}
        assert len(at_risk) == 3

    def test_migration_links_derivative_to_source_digest(
            self, vault, tiny_collection, provenance):
        """The acceptance scenario: a magnetic-tape record is flagged,
        migrated under its policy, and the derivative's provenance
        links back to the source artifact's CAS digest."""
        vault.ingest(tiny_collection, PreservationLevel.ANALYSIS_LEVEL)
        policy = PreservationPolicy(PreservationLevel.ANALYSIS_LEVEL,
                                    lifetime_years=50)
        report = vault.migrate(policy=policy, horizon_year=2014,
                               target_format="WAV")
        assert len(report.migrations) == 3
        tape = next(m for m in report.migrations
                    if m["from_format"] == "magnetic tape")

        # the manifest carries the lineage and retires the source row
        derived_rows = [row for row in vault.manifest(kind="record")
                        if row["source_digest"]]
        assert len(derived_rows) == 3
        assert {row["digest"] for row in derived_rows} == {
            m["derived_digest"] for m in report.migrations}
        assert all(row["format"] == "WAV" for row in derived_rows)
        superseded = [
            row for row in vault.manifest(kind="record",
                                          include_superseded=True)
            if row["superseded"]]
        assert {row["digest"] for row in superseded} == {
            m["source_digest"] for m in report.migrations}
        assert vault.at_risk(horizon_year=2014) == []

        # ... and so does the OPM graph, by CAS digest
        assert provenance.run_ids(MIGRATION_WORKFLOW) == [report.run_id]
        graph = provenance.graph_for(report.run_id)
        derivations = [(e.effect, e.cause)
                       for e in graph.edges("wasDerivedFrom")]
        assert (f"cas:{tape['derived_digest']}",
                f"cas:{tape['source_digest']}") in derivations
        assert graph.node(f"cas:{tape['source_digest']}").annotations[
            "format"] == "magnetic tape"

    def test_migration_preserves_level(self, vault, tiny_collection):
        vault.ingest(tiny_collection, PreservationLevel.SIMPLIFIED_DATA)
        report = vault.migrate()
        assert all(m["level"] == 2 for m in report.migrations)
        derived_rows = [row for row in vault.manifest(kind="record")
                        if row["source_digest"]]
        assert all(row["level"] == 2 for row in derived_rows)


class TestStatus:
    def test_status_summarizes_everything(self, vault, tiny_collection):
        vault.ingest(tiny_collection, PreservationLevel.ANALYSIS_LEVEL)
        vault.inject_corruption()
        vault.repair(vault.verify())
        vault.migrate()
        status = vault.status()
        assert status["name"] == "testvault"
        assert status["objects"] == vault.object_count()
        assert status["manifest"]["by_kind"] == {"package": 1, "record": 6}
        assert status["manifest"]["by_level"] == {"3": 7}
        assert status["at_risk_records"] == 0
        assert status["last_audit"]["healthy"] is False
        assert status["provenance_runs"] == {
            AUDIT_WORKFLOW: 1, REPAIR_WORKFLOW: 1, MIGRATION_WORKFLOW: 1}
        assert status["replica_lag"] == {
            "testvault-r0": 0, "testvault-r1": 0, "testvault-r2": 0}

    def test_spans_are_recorded(self, vault, tiny_collection,
                                vault_telemetry):
        vault.ingest(tiny_collection, PreservationLevel.ANALYSIS_LEVEL)
        vault.verify()
        names = {span["name"] for span in
                 vault_telemetry.snapshot()["spans"]["spans"]}
        assert {"vault.ingest", "vault.audit"} <= names


class TestKeyedLookups:
    def test_ingest_and_verify_bypass_the_query_planner(
            self, isolated_telemetry, small_catalogue):
        """CAS objects, manifest rows, runs and provstore counters are
        read by primary key, which never goes through the planner."""
        collection, __ = generate_collection(
            small_catalogue, config=CollectionConfig(
                seed=7, n_records=60, n_distinct_species=20,
                n_outdated_species=3))
        vault = PreservationVault("keyed", telemetry=Telemetry())
        vault.ingest(collection, PreservationLevel.ANALYSIS_LEVEL)
        vault.verify()
        planned = {
            dict(series.labels)["table"]
            for series in isolated_telemetry.metrics.series(
                "storage_planner_decisions_total")
            if dict(series.labels)["path"] == "index_lookup"
        }
        assert planned.isdisjoint({"cas_objects", "vault_manifest",
                                   "provenance_runs", "provstore_manifest"})
