"""The archival provenance store: interning, segments, queries and
the repository wiring."""

import datetime as dt
import sys
import threading
import warnings

import pytest

from repro.errors import ProvenanceError
from repro.provenance.manager import ProvenanceManager
from repro.provenance.opm import OPMGraph
from repro.provenance.repository import ProvenanceRepository
from repro.provenance.store import (
    CSRIndex,
    ProvenanceStore,
    SegmentBuilder,
    StringPool,
    TraversalBudget,
)
from repro.storage import Column, Database, TableSchema
from repro.storage import column_types as ct
from repro.workflow.cache import ResultCache
from repro.workflow.engine import WorkflowEngine
from repro.workflow.model import Processor, Workflow
from repro.workflow.trace import WorkflowTrace


def _graph(run_id: str, n_artifacts: int = 2,
           cached_from: str | None = None) -> OPMGraph:
    """run/p uses a1, generates a2..an, controlled by one agent."""
    graph = OPMGraph(run_id)
    process = f"{run_id}/p"
    annotations = {}
    if cached_from is not None:
        annotations["wasCachedFrom"] = cached_from
    graph.add_process(process, annotations=annotations)
    graph.add_agent("agent/engine")
    graph.was_controlled_by(process, "agent/engine")
    ids = [f"{run_id}/a{i}" for i in range(1, n_artifacts + 1)]
    for artifact in ids:
        graph.add_artifact(artifact)
    graph.used(process, ids[0])
    for artifact in ids[1:]:
        graph.was_generated_by(artifact, process)
        graph.was_derived_from(artifact, ids[0])
    return graph


class TestStringPool:
    def test_intern_is_idempotent_and_dense(self):
        pool = StringPool()
        a = pool.intern("x")
        b = pool.intern("y")
        assert (a, b) == (0, 1)
        assert pool.intern("x") == 0
        assert len(pool) == 2

    def test_lookup_and_get(self):
        pool = StringPool()
        sid = pool.intern("node")
        assert pool.lookup(sid) == "node"
        assert pool.get("node") == sid
        assert pool.get("absent") is None
        with pytest.raises(ProvenanceError):
            pool.lookup(99)


class TestCSRIndex:
    def test_neighbors(self):
        index = CSRIndex.build([(5, 1), (2, 9), (5, 3), (2, 9)])
        assert sorted(index.neighbors(5)) == [1, 3]
        assert list(index.neighbors(2)) == [9, 9]
        assert list(index.neighbors(7)) == []
        assert 5 in index and 7 not in index


class TestSegments:
    def test_builder_and_sealed_agree(self):
        pool = StringPool()
        builder = SegmentBuilder("seg-t", pool)
        builder.add_graph("r1", _graph("r1", 3))
        sealed = builder.seal()
        sid = pool.get("r1/p")
        for segment in (builder, sealed):
            assert segment.has_node(sid)
            assert segment.n_runs == 1
            assert sorted(segment.neighbors(0, sid)) \
                == sorted(builder.neighbors(0, sid))
        assert sealed.nbytes > 0

    def test_seal_empty_raises(self):
        with pytest.raises(ProvenanceError):
            SegmentBuilder("seg-e", StringPool()).seal()


class TestProvenanceStore:
    def test_ingest_and_counts(self):
        store = ProvenanceStore()
        assert store.ingest_graph("r1", _graph("r1"))
        assert store.has_run("r1")
        assert not store.has_run("r2")
        counts = store.manifest_counts()
        assert counts["runs_total"] == 1
        assert counts["runs_tail"] == 1

    def test_reingest_is_skipped(self):
        store = ProvenanceStore()
        assert store.ingest_graph("r1", _graph("r1"))
        assert not store.ingest_graph("r1", _graph("r1", 4))
        assert store.manifest_counts()["runs_total"] == 1

    def test_auto_seal(self):
        store = ProvenanceStore(runs_per_segment=2)
        for i in range(5):
            store.ingest_graph(f"r{i}", _graph(f"r{i}"))
        counts = store.manifest_counts()
        assert counts["segments_sealed"] == 2
        assert counts["runs_tail"] == 1
        assert store.run_count() == 5

    def test_ancestors_and_descendants(self):
        store = ProvenanceStore()
        store.ingest_graph("r1", _graph("r1", 3))
        up = store.ancestors("r1/a2")
        assert "r1/p" in up.node_ids and "r1/a1" in up.node_ids
        down = store.descendants("r1/a1")
        assert {"r1/a2", "r1/a3", "r1/p"} <= set(down.node_ids)
        assert not up.truncated

    def test_edge_kind_filter(self):
        store = ProvenanceStore()
        store.ingest_graph("r1", _graph("r1", 3))
        only_derived = store.ancestors("r1/a2",
                                       kinds=["wasDerivedFrom"])
        assert only_derived.node_ids == ["r1/a1"]

    def test_unknown_node_is_empty(self):
        store = ProvenanceStore()
        store.ingest_graph("r1", _graph("r1"))
        assert store.ancestors("nowhere").node_ids == []
        assert store.runs_for_artifact("nowhere") == []
        assert store.node_kind("nowhere") is None

    def test_node_budget_bounds_result(self):
        store = ProvenanceStore()
        store.ingest_graph("r1", _graph("r1", 6))
        result = store.descendants(
            "r1/a1", budget=TraversalBudget(max_nodes=2))
        assert result.truncated
        assert len(result.node_ids) <= 2

    def test_depth_budget(self):
        store = ProvenanceStore()
        store.ingest_graph("r1", _graph("r1", 3))
        shallow = store.ancestors(
            "r1/a2", budget=TraversalBudget(max_depth=1))
        assert shallow.depth_reached <= 1
        assert shallow.truncated  # a1 is two hops away via p

    def test_cached_from_chain(self):
        store = ProvenanceStore()
        store.ingest_graph("r1", _graph("r1"))
        store.ingest_graph("r2", _graph("r2", cached_from="r1/p"))
        store.ingest_graph("r3", _graph("r3", cached_from="r2/p"))
        resolved = store.cached_from_chain("r3/p")
        assert resolved["chain"] == ["r3/p", "r2/p", "r1/p"]
        assert resolved["origin"] == "r1/p"
        assert not resolved["truncated"]
        assert store.cached_from_chain("r1/p")["chain"] == ["r1/p"]

    def test_cached_edges_stay_out_of_default_lineage(self):
        store = ProvenanceStore()
        store.ingest_graph("r1", _graph("r1"))
        store.ingest_graph("r2", _graph("r2", cached_from="r1/p"))
        assert "r1/p" not in store.ancestors("r2/a2").node_ids

    def test_runs_for_artifact_spans_segments(self):
        store = ProvenanceStore(runs_per_segment=1)
        shared = OPMGraph("g1")
        shared.add_artifact("cas:shared")
        shared.add_process("r1/p")
        shared.used("r1/p", "cas:shared")
        store.ingest_graph("r1", shared)
        shared2 = OPMGraph("g2")
        shared2.add_artifact("cas:shared")
        shared2.add_process("r2/p")
        shared2.used("r2/p", "cas:shared")
        store.ingest_graph("r2", shared2)
        assert store.runs_for_artifact("cas:shared") == ["r1", "r2"]

    def test_derived_objects(self):
        store = ProvenanceStore()
        graph = OPMGraph("g")
        graph.add_process("r1/p")
        for node in ("r1/a1", "cas:aaa", "cas:bbb"):
            graph.add_artifact(node)
        graph.used("r1/p", "r1/a1")
        graph.was_generated_by("cas:aaa", "r1/p")
        graph.was_derived_from("cas:bbb", "cas:aaa")
        store.ingest_graph("r1", graph)
        result = store.derived_objects("r1")
        assert result["objects"] == ["cas:aaa", "cas:bbb"]
        with pytest.raises(ProvenanceError):
            store.derived_objects("r9")

    def test_stats_shape(self):
        store = ProvenanceStore()
        store.ingest_graph("r1", _graph("r1"))
        stats = store.stats()
        assert stats["runs_total"] == 1
        assert stats["segments"][0]["segment_id"] == "seg-00001"

    def test_rejects_bad_segment_size(self):
        with pytest.raises(ProvenanceError):
            ProvenanceStore(runs_per_segment=0)


class TestRepositoryIntegration:
    def _engine_world(self, runs=3):
        manager = ProvenanceManager()
        engine = WorkflowEngine(cache=ResultCache())
        manager.attach(engine)
        for _ in range(runs):
            wf = Workflow("w")
            wf.add_processor(Processor("d", "distinct",
                                       inputs=["values"],
                                       outputs=["values"]))
            wf.map_input("v", "d", "values")
            wf.map_output("o", "d", "values")
            engine.run(wf, {"v": [3, 3, 1]})
        return manager.repository

    def test_engine_runs_flow_into_store(self):
        repository = self._engine_world()
        assert repository.store.run_count() == 3
        assert repository.run_count() == 3

    def test_runs_for_artifact_uses_backward_index(self):
        repository = self._engine_world(runs=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # store path must not warn
            assert repository.runs_for_artifact("run-0001/a1") \
                == ["run-0001"]

    def test_reattach_resyncs_tail_runs(self):
        repository = self._engine_world(runs=3)
        repository.store.seal()
        database = repository.database
        # a fresh attach rebuilds the whole index, sealed runs included,
        # from the repository rows
        fresh = ProvenanceRepository(database)
        assert fresh.store.run_count() == 3
        assert fresh.store.runs_for_artifact("run-0001/a1") \
            == ["run-0001"]

    def test_research_object_uses_keyed_probe(self):
        repository = self._engine_world(runs=1)
        from repro.linkeddata import ResearchObject
        ro = ResearchObject("ro-1", "t", "c")
        ro.aggregate_run(repository, "run-0001")
        assert ro.run_ids == ["run-0001"]


def _store_run(repository: ProvenanceRepository, run_id: str) -> None:
    trace = WorkflowTrace(run_id, "w",
                          dt.datetime(2013, 1, 1, tzinfo=dt.timezone.utc))
    trace.finish(trace.started, "completed")
    repository.store_run(trace, _graph(run_id))


class TestStoreWriters:
    def test_concurrent_store_runs_seal_one_segment_once(self):
        # 320 runs cross the 256-run segment boundary while 8 threads
        # write: exactly one of them may seal the tail
        repository = ProvenanceRepository()
        threads_n, runs_each = 8, 40
        barrier = threading.Barrier(threads_n)
        errors = []

        def worker(worker_id):
            try:
                barrier.wait(timeout=30)
                for n in range(runs_each):
                    _store_run(repository, f"run-{worker_id}-{n}")
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
        assert len(repository) == threads_n * runs_each
        assert repository.store.run_count() == threads_n * runs_each
        assert [segment.n_runs for segment in repository.store.segments] \
            == [256]

    def test_queries_never_miss_the_segment_being_sealed(self):
        # a reader racing seal() must find every run either in the
        # tail or in its new segment, so its answer never shrinks;
        # many short trials keep each read cheap, so reads land inside
        # the seal often
        graphs = []
        for n in range(40):
            graph = OPMGraph(f"r{n}")
            graph.add_artifact("cas:shared")
            graph.add_process(f"r{n}/p")
            graph.used(f"r{n}/p", "cas:shared")
            graphs.append(graph)
        backwards = []

        def reader(store, done, trial):
            last = 0
            while not done.is_set():
                seen = len(store.runs_for_artifact("cas:shared"))
                if seen < last:
                    backwards.append((trial, last, seen))
                last = seen

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(100):
                store = ProvenanceStore(runs_per_segment=2)
                done = threading.Event()
                thread = threading.Thread(target=reader,
                                          args=(store, done, trial))
                thread.start()
                try:
                    for graph in graphs:
                        store.ingest_graph(graph.id, graph)
                finally:
                    done.set()
                    thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert backwards == []

    def test_run_ids_while_a_writer_ingests(self):
        # iterating the run set while a writer added to it raised
        # "Set changed size during iteration"
        graphs = [_graph(f"r{n}") for n in range(1000)]
        store = ProvenanceStore()
        done = threading.Event()
        errors = []

        def reader():
            try:
                while not done.is_set():
                    store.run_ids()
            except RuntimeError as exc:  # reported through the assert below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for graph in graphs:
                store.ingest_graph(graph.id, graph)
        finally:
            done.set()
            thread.join(timeout=30)
            sys.setswitchinterval(previous)
        assert not thread.is_alive()
        assert errors == []

    def test_two_repositories_share_one_database(self):
        database = Database("provenance")
        first = ProvenanceRepository(database)
        second = ProvenanceRepository(database)
        for repository, run_id in ((first, "r1"), (second, "r2")):
            _store_run(repository, run_id)
            assert repository.store.seal() is not None
        third = ProvenanceRepository(database)
        assert third.store.run_ids() == ["r1", "r2"]
        assert third.runs_for_artifact("r2/a1") == ["r2"]

    def test_journal_with_the_old_manifest_table_still_attaches(
            self, tmp_path):
        journal = tmp_path / "provenance.journal"
        database = Database("provenance", journal_path=journal)
        repository = ProvenanceRepository(database)
        for i in range(3):
            _store_run(repository, f"r{i}")
        repository.store.seal()
        _store_run(repository, "r3")
        counts = repository.store.manifest_counts()
        # earlier versions also persisted the counters and each sealed
        # segment in tables of their own
        database.create_table(TableSchema("provstore_manifest", [
            Column("key", ct.TEXT),
            Column("value", ct.INTEGER, nullable=False),
        ], primary_key="key"))
        database.bulk_load("provstore_manifest", [
            {"key": key, "value": value} for key, value in counts.items()])
        database.create_table(TableSchema("provstore_segments", [
            Column("seq", ct.INTEGER),
            Column("segment_id", ct.TEXT, nullable=False),
            Column("payload", ct.JSON, nullable=False),
        ], primary_key="seq"))
        database.insert("provstore_segments", {
            "seq": 1, "segment_id": "seg-00001",
            "payload": '{"format":1,"runs":[0]}'})

        recovered = Database.recover("provenance", journal)
        assert recovered.has_table("provstore_manifest")
        assert recovered.has_table("provstore_segments")
        reattached = ProvenanceRepository(recovered)
        kept = ("runs_total", "nodes_total", "edges_total", "pool_size")
        assert {key: reattached.store.manifest_counts()[key]
                for key in kept} == {key: counts[key] for key in kept}
        assert reattached.run_count() == 4
