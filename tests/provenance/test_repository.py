"""The Data Provenance Repository."""

import datetime as dt
import json
import sys
import threading

import pytest

from repro.curation.pipeline import CurationPipeline
from repro.errors import ProvenanceError
from repro.hashing import canonical_digest, sha256_hex
from repro.provenance.manager import ProvenanceManager
from repro.provenance.opm import OPMGraph
from repro.provenance.repository import ProvenanceRepository
from repro.provenance.serialization import graph_from_json, graph_to_json
from repro.storage import Database
from repro.streaming import IncrementalCurator
from repro.streaming.incremental import catalogue_resolver
from repro.workflow.engine import WorkflowEngine
from repro.workflow.model import Processor, Workflow
from repro.workflow.serialization import workflow_from_json, workflow_to_json
from repro.workflow.trace import WorkflowTrace

from tests.streaming.test_incremental import make_curator, make_database


def run_once(engine=None, manager=None, name="repo_demo"):
    wf = Workflow(name)
    wf.add_processor(Processor("d", "distinct", inputs=["values"],
                               outputs=["values"]))
    wf.map_input("v", "d", "values")
    wf.map_output("o", "d", "values")
    engine = engine or WorkflowEngine()
    manager = manager or ProvenanceManager()
    manager.attach(engine)
    result = engine.run(wf, {"v": [1, 1, 2]})
    return manager.repository, result, wf, engine, manager


class TestStorage:
    def test_store_and_fetch_graph(self):
        repo, result, *_ = run_once()
        graph = repo.graph_for(result.run_id)
        assert graph.has_node(f"{result.run_id}/d")

    def test_store_and_fetch_trace(self):
        repo, result, *_ = run_once()
        trace = repo.trace_for(result.run_id)
        assert trace.outputs == {"o": [1, 2]}

    def test_workflow_stored_alongside(self):
        repo, result, wf, *_ = run_once()
        stored = repo.workflow_for(result.run_id)
        assert stored is not None
        assert stored.name == wf.name

    def test_missing_run_raises(self):
        repo = ProvenanceRepository()
        with pytest.raises(ProvenanceError):
            repo.graph_for("run-9999")

    def test_restore_replaces_same_run_id(self):
        repo, result, wf, engine, manager = run_once()
        # capture the same trace again: must replace, not duplicate
        manager.capture(result.trace, wf)
        assert len(repo) == 1


class TestQueries:
    def test_run_ids_filtered_by_workflow(self):
        engine = WorkflowEngine()
        manager = ProvenanceManager()
        repo, result, *_ = run_once(engine, manager, name="alpha")
        run_once(engine, manager, name="beta")
        assert len(repo.run_ids()) == 2
        assert repo.run_ids("alpha") == [result.run_id]

    def test_latest_run_id(self):
        engine = WorkflowEngine()
        manager = ProvenanceManager()
        repo, first, *_ = run_once(engine, manager, name="alpha")
        __, second, *_ = run_once(engine, manager, name="alpha")
        assert repo.latest_run_id("alpha") == second.run_id
        assert repo.latest_run_id("ghost") is None

    def test_runs_metadata(self):
        repo, result, *_ = run_once()
        rows = list(repo.runs())
        assert len(rows) == 1
        assert rows[0]["status"] == "completed"
        assert "trace" not in rows[0]  # heavy payloads excluded

    def test_process_annotations_empty_without_quality(self):
        repo, result, *_ = run_once()
        assert repo.process_annotations(result.run_id) == {}


# ----------------------------------------------------------------------
# values stored by content
# ----------------------------------------------------------------------

def _inline_row(trace, graph, workflow):
    """The run row as the inline format wrote it: the whole trace, graph
    and workflow JSON in the row itself."""
    return {
        "run_id": trace.run_id,
        "workflow_name": trace.workflow_name,
        "status": trace.status,
        "started": trace.started,
        "finished": trace.finished,
        "trace": json.dumps(trace.to_dict(), sort_keys=True, default=str),
        "graph": graph_to_json(graph),
        "workflow": None if workflow is None
        else workflow_to_json(workflow, indent=None),
    }


class RecordingRepository(ProvenanceRepository):
    """Keeps, per stored run, the row the inline format wrote for it."""

    def __init__(self, database=None):
        super().__init__(database)
        self.inline = {}

    def store_run(self, trace, graph, workflow=None):
        super().store_run(trace, graph, workflow)
        self.inline[trace.run_id] = _inline_row(trace, graph, workflow)


def _inline_reads(row):
    """What reading an inline row yields: trace, graph and workflow as
    JSON text (key order included)."""
    workflow = row["workflow"]
    return (
        json.dumps(WorkflowTrace.from_dict(json.loads(row["trace"]))
                   .to_dict()),
        graph_to_json(graph_from_json(row["graph"])),
        None if workflow is None
        else workflow_to_json(workflow_from_json(workflow), indent=None),
    )


def _reads(repo, run_id):
    workflow = repo.workflow_for(run_id)
    return (
        json.dumps(repo.trace_for(run_id).to_dict()),
        graph_to_json(repo.graph_for(run_id)),
        None if workflow is None else workflow_to_json(workflow, indent=None),
    )


def _values(repo):
    return {row["digest"]: row["value"]
            for row in repo.database.query("provenance_values").all()}


class TestValuesByContent:
    def test_fnjv_world_and_curator_sweep_round_trip(
            self, small_collection, reliable_service):
        # two engines number their runs alike: one repository each
        paper, sweeps = RecordingRepository(), RecordingRepository()
        CurationPipeline(small_collection, reliable_service,
                         provenance=ProvenanceManager(paper)).run_all()
        curator = IncrementalCurator(
            small_collection.database,
            catalogue_resolver(reliable_service.catalogue),
            shard_size=64, resource_versions={"catalogue": 1},
            provenance=ProvenanceManager(sweeps))
        curator.assess()
        curator.bump_resource("catalogue")
        curator.assess(full=True)
        assert [row["workflow_name"] for row in paper.inline.values()] == [
            "outdated_species_name_detection"]
        assert len(sweeps.inline) == 2 * 10  # two sweeps of 600 records / 64
        for repo in (paper, sweeps):
            assert repo.run_ids() == sorted(repo.inline)
            for run_id, row in repo.inline.items():
                assert _reads(repo, run_id) == _inline_reads(row), run_id
                assert repo.trace_for(run_id).to_dict() == \
                    json.loads(row["trace"])
                # the run row no longer carries the values themselves
                stored = repo.database.get("provenance_runs", run_id)
                assert len(stored["trace"]) < len(row["trace"])

    def test_inline_rows_still_read(self):
        source, result, wf, *_ = run_once()
        row = _inline_row(source.trace_for(result.run_id),
                          source.graph_for(result.run_id), wf)
        repo = ProvenanceRepository()
        repo.database.insert("provenance_runs", row)
        assert _reads(repo, result.run_id) == _inline_reads(row)
        assert _reads(repo, result.run_id) == _reads(source, result.run_id)
        assert repo.trace_for(result.run_id).outputs == {"o": [1, 2]}

    def test_recovered_inline_database_reads_and_gains_values_table(
            self, tmp_path):
        # a journaled database holding only the run table and an inline
        # row, as written before values were stored by content
        source, result, wf, *_ = run_once()
        row = _inline_row(source.trace_for(result.run_id),
                          source.graph_for(result.run_id), wf)
        path = tmp_path / "provenance.journal"
        old = Database("provenance", journal_path=path)
        old.create_table(
            source.database.table("provenance_runs").schema)
        old.insert("provenance_runs", row)
        recovered = Database.recover("provenance", path)
        assert not recovered.has_table("provenance_values")
        repo = ProvenanceRepository(recovered)
        assert recovered.has_table("provenance_values")
        assert _reads(repo, result.run_id) == _inline_reads(row)
        # and new runs on it are stored by content
        __, later, *_ = run_once(manager=ProvenanceManager(repo))
        assert repo.trace_for(later.run_id).outputs == {"o": [1, 2]}
        assert len(_values(repo)) > 0

    def test_value_shared_by_runs_is_stored_once(self):
        engine = WorkflowEngine()
        manager = ProvenanceManager()
        repo, first, *_ = run_once(engine, manager)
        count = len(_values(repo))
        __, second, *_ = run_once(engine, manager)
        assert second.run_id != first.run_id
        # same input, outputs and workflow: nothing new to store
        assert len(_values(repo)) == count

    def test_catalogue_reissue_over_unchanged_records_stores_only_workflows(
            self):
        database = make_database(100)
        repo = ProvenanceRepository()
        curator = make_curator(database, shard_size=16,
                               provenance=ProvenanceManager(repo))
        curator.assess()
        before = _values(repo)
        # a re-issue that changes no answer: every shard re-runs its
        # assessor against the same records
        curator.bump_resource("catalogue")
        result = curator.assess()
        assert result.shards_recomputed == 7
        added = set(_values(repo)) - set(before)
        workflow_digests = {
            sha256_hex(workflow_to_json(repo.workflow_for(run_id),
                                        indent=None))
            for run_id in result.run_ids
        }
        assert added == workflow_digests
        assert len(added) == 7

    def test_list_values_are_whole_rows_keyed_by_canonical_digest(self):
        repo, result, wf, *_ = run_once()
        trace = repo.trace_for(result.run_id)
        assert set(_values(repo)) == {
            canonical_digest(trace.inputs["v"]),
            canonical_digest(trace.outputs["o"]),
            sha256_hex(workflow_to_json(wf, indent=None)),
        }

    def test_concurrent_store_runs_share_values_without_collisions(self):
        repo = ProvenanceRepository()
        # 192 runs stay inside the archival store's first segment (256
        # runs), which this test does not exercise
        threads_n, runs_each = 8, 24
        # every thread's n-th run carries the same new values, so each
        # round is a race to insert them first
        rows = [[{"round": n, "record": i} for i in range(40)]
                for n in range(runs_each)]
        names = [f"Name {i}" for i in range(5)]
        barrier = threading.Barrier(threads_n)
        errors = []

        def worker(worker_id):
            try:
                barrier.wait(timeout=30)
                for n in range(runs_each):
                    trace = WorkflowTrace(
                        f"run-{worker_id}-{n}", "shared_values",
                        dt.datetime(2013, 1, 1, tzinfo=dt.timezone.utc))
                    trace.inputs = {"rows": rows[n]}
                    trace.outputs = {"names": names, "n": n}
                    trace.record_binding("p", "rows", "input", rows[n])
                    trace.finish(trace.started, "completed")
                    repo.store_run(trace, OPMGraph(f"opm/{trace.run_id}"))
            except Exception as exc:  # reported through the assert below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(repo) == threads_n * runs_each
        digests = repo.database.query("provenance_values").values("digest")
        assert sorted(digests) == sorted(
            {canonical_digest(value) for value in [names, *rows]})
        assert repo.trace_for("run-7-23").inputs == {"rows": rows[23]}
