"""The archival provenance store.

:class:`ProvenanceStore` replaces "keep a million OPM object graphs in
memory" with a compact, queryable archive:

* every string interned once (:mod:`~repro.provenance.store.interning`),
* graphs appended to an **active tail** segment and periodically
  **sealed** — compacted in memory into immutable columnar segments
  with CSR adjacency (:mod:`~repro.provenance.store.columnar`),
* the counts ("how many runs are archived") kept as running totals,
  so they never require a scan,
* lineage answered by bounded frontier walks
  (:mod:`~repro.provenance.store.queries`).

The store is an in-memory *index*, not the system of record: the
:class:`~repro.provenance.repository.ProvenanceRepository` keeps the
full per-run graphs (labels, values, annotations) as durable rows, and
the store keeps the cross-run skeleton (ids + typed edges) that
lineage queries touch.  Nothing of the store is persisted; attaching a
repository to a database rebuilds it from the run rows.
"""

from __future__ import annotations

import threading
from array import array
from typing import Any, Iterable

from repro.errors import ProvenanceError
from repro.provenance.opm import OPMGraph
from repro.provenance.store.columnar import (
    KIND_CODES,
    KIND_NAMES,
    SealedSegment,
    SegmentBuilder,
)
from repro.provenance.store.interning import StringPool
from repro.provenance.store.queries import (
    LineageResult,
    TraversalBudget,
    cached_chain,
    frontier_walk,
    resolve_edge_codes,
)

__all__ = ["ProvenanceStore", "DEFAULT_RUNS_PER_SEGMENT"]

#: runs accumulated in the active tail before it is sealed
DEFAULT_RUNS_PER_SEGMENT = 256

_ARTIFACT = KIND_CODES["artifact"]
_VAULT_PREFIX = "cas:"


class ProvenanceStore:
    """Interned, columnar, in-memory provenance index.

    Parameters
    ----------
    runs_per_segment:
        Tail size that triggers an automatic :meth:`seal`.

    Writers (:meth:`ingest_graph`, :meth:`seal`) hold the store's lock,
    so concurrent ingests never seal one tail twice; readers take one
    :meth:`snapshot` under it.  Metrics go to the process-wide
    telemetry sink.
    """

    def __init__(self,
                 runs_per_segment: int = DEFAULT_RUNS_PER_SEGMENT) -> None:
        if runs_per_segment < 1:
            raise ProvenanceError("runs_per_segment must be >= 1")
        from repro.telemetry import get_telemetry

        # reentrant: ingest_graph seals while it holds the lock
        self._lock = threading.RLock()
        self.runs_per_segment = runs_per_segment
        self.telemetry = get_telemetry()
        self.pool = StringPool()
        self.segments: list[SealedSegment] = []
        #: node kind per sid (-1 = the sid is not a node id)
        self._kinds = array("b")
        self._run_sids: set[int] = set()
        self._runs_sealed = 0
        self._nodes_total = 0
        self._edges_total = 0
        self.tail = SegmentBuilder(self._next_segment_id(), self.pool)
        self._publish_gauges()

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def _grow_kinds(self) -> None:
        missing = len(self.pool) - len(self._kinds)
        if missing > 0:
            self._kinds.extend(array("b", [-1]) * missing)

    def _next_segment_id(self) -> str:
        return f"seg-{len(self.segments) + 1:05d}"

    def _publish_gauges(self) -> None:
        metrics = self.telemetry.metrics
        metrics.gauge("provstore_pool_strings").set(len(self.pool))
        metrics.gauge("provstore_tail_runs").set(self.tail.n_runs)
        metrics.gauge("provstore_sealed_segments").set(len(self.segments))

    def manifest_counts(self) -> dict[str, int]:
        """The archive's counters — the O(1) answer to "how big is the
        archive" that replaces scanning the runs table."""
        return {
            "runs_total": len(self._run_sids),
            "runs_sealed": self._runs_sealed,
            "runs_tail": self.tail.n_runs,
            "segments_sealed": len(self.segments),
            "nodes_total": self._nodes_total,
            "edges_total": self._edges_total,
            "pool_size": len(self.pool),
        }

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------

    def has_run(self, run_id: str) -> bool:
        sid = self.pool.get(run_id)
        return sid is not None and sid in self._run_sids

    def run_count(self) -> int:
        return len(self._run_sids)

    def ingest_graph(self, run_id: str, graph: OPMGraph) -> bool:
        """Append one run's graph to the active tail.

        Returns ``False`` (and counts a skip) when the run is already
        archived: segments are append-only, so a re-captured run keeps
        its first archived skeleton — the repository row carries the
        latest full graph, which is what an attach indexes.
        """
        metrics = self.telemetry.metrics
        with self._lock:
            if self.has_run(run_id):
                metrics.counter("provstore_reingest_skipped_total").inc()
                return False
            nodes, edges = self.tail.add_graph(run_id, graph)
            self._grow_kinds()
            for node in graph.nodes():
                sid = self.pool.get(node.id)
                if sid is not None:
                    self._kinds[sid] = KIND_CODES[node.kind]
            self._run_sids.add(self.pool.intern(run_id))
            self._nodes_total += nodes
            self._edges_total += edges
            metrics.counter("provstore_runs_ingested_total").inc()
            metrics.counter("provstore_nodes_ingested_total").inc(nodes)
            metrics.counter("provstore_edges_ingested_total").inc(edges)
            if self.tail.n_runs >= self.runs_per_segment:
                self.seal()
            else:
                self._publish_gauges()
        return True

    def seal(self) -> str | None:
        """Compact the active tail into an immutable sealed segment.
        Returns the new segment id, or ``None`` for an empty tail."""
        with self._lock:
            if self.tail.n_runs == 0:
                return None
            segment = self.tail.seal()
            self.segments.append(segment)
            self._runs_sealed += segment.n_runs
            self.tail = SegmentBuilder(self._next_segment_id(), self.pool)
            self.telemetry.metrics.counter("provstore_seals_total").inc()
            self._publish_gauges()
        return segment.segment_id

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def snapshot(self) -> list[Any]:
        """The sealed segments and the (possibly empty) active tail,
        read together under the lock: a query racing :meth:`seal` finds
        each run in the tail it copied or in the segment sealed from
        it, never in neither."""
        with self._lock:
            return [*self.segments, self.tail]

    def _count_query(self, kind: str) -> None:
        self.telemetry.metrics.counter("provstore_queries_total",
                                       kind=kind).inc()

    def _lineage(self, node_id: str, *, forward: bool, direction: str,
                 kinds: Iterable[str] | None,
                 budget: TraversalBudget | None) -> LineageResult:
        self._count_query(direction)
        budget = budget or TraversalBudget()
        sid = self.pool.get(node_id)
        if sid is None or sid >= len(self._kinds) \
                or self._kinds[sid] < 0:
            return LineageResult(node_id, direction, [], False, 0, 0)
        seen, truncated, visited, depth = frontier_walk(
            self.snapshot(), (sid,),
            codes=resolve_edge_codes(kinds),
            forward=forward, budget=budget)
        if truncated:
            self.telemetry.metrics.counter(
                "provstore_truncations_total").inc()
        return LineageResult(
            node_id, direction,
            sorted(self.pool.lookup(s) for s in seen),
            truncated, visited, depth)

    def ancestors(self, node_id: str,
                  kinds: Iterable[str] | None = None,
                  budget: TraversalBudget | None = None
                  ) -> LineageResult:
        """Everything that (transitively) caused ``node_id``, walking
        effect -> cause within the budget."""
        return self._lineage(node_id, forward=True,
                             direction="ancestors", kinds=kinds,
                             budget=budget)

    def descendants(self, node_id: str,
                    kinds: Iterable[str] | None = None,
                    budget: TraversalBudget | None = None
                    ) -> LineageResult:
        """Everything (transitively) caused *by* ``node_id``."""
        return self._lineage(node_id, forward=False,
                             direction="descendants", kinds=kinds,
                             budget=budget)

    def cached_from_chain(self, process_id: str,
                          budget: TraversalBudget | None = None
                          ) -> dict[str, Any]:
        """Resolve a cache-replay chain to the execution that really
        produced the outputs.

        Returns ``{"chain": [process ids, replay first], "origin":
        the process that actually executed, "truncated": bool}``; a
        process that was never replayed yields a single-element chain.
        """
        self._count_query("cached_chain")
        budget = budget or TraversalBudget()
        sid = self.pool.get(process_id)
        if sid is None:
            return {"chain": [process_id], "origin": process_id,
                    "truncated": False}
        chain, truncated = cached_chain(self.snapshot(), sid,
                                        budget=budget)
        if truncated:
            self.telemetry.metrics.counter(
                "provstore_truncations_total").inc()
        ids = [self.pool.lookup(s) for s in chain]
        return {"chain": ids, "origin": ids[-1], "truncated": truncated}

    def runs_for_artifact(self, artifact_id: str) -> list[str]:
        """Every archived run whose graph mentions ``artifact_id`` —
        the backward index that replaces the O(n-runs) repository
        scan."""
        self._count_query("artifact_runs")
        sid = self.pool.get(artifact_id)
        if sid is None:
            return []
        run_sids: set[int] = set()
        for segment in self.snapshot():
            run_sids.update(segment.runs_of(sid))
        return sorted(self.pool.lookup(s) for s in run_sids)

    def derived_objects(self, run_id: str) -> dict[str, Any]:
        """Which preserved vault objects derive from run ``run_id``.

        Walks cause -> effect, within the default traversal budget,
        from every artifact the run touched and keeps reachable
        artifacts addressed in the vault's content namespace (``cas:``
        digests) — including the run's own artifacts when they are
        vault objects themselves.
        """
        self._count_query("derived_objects")
        run_sid = self.pool.get(run_id)
        if run_sid is None or run_sid not in self._run_sids:
            raise ProvenanceError(f"run {run_id!r} is not archived")
        segments = self.snapshot()
        start_sids = sorted({
            sid
            for segment in segments
            for sid in segment.nodes_of_run(run_sid)
            if self._kinds[sid] == _ARTIFACT
        })
        seen, truncated, __, __depth = frontier_walk(
            segments, start_sids,
            codes=resolve_edge_codes(None), forward=False,
            budget=TraversalBudget())
        if truncated:
            self.telemetry.metrics.counter(
                "provstore_truncations_total").inc()
        objects = sorted(
            self.pool.lookup(sid)
            for sid in set(start_sids) | seen
            if self._kinds[sid] == _ARTIFACT
            and self.pool.lookup(sid).startswith(_VAULT_PREFIX)
        )
        return {"run_id": run_id, "objects": objects,
                "truncated": truncated}

    def node_kind(self, node_id: str) -> str | None:
        """The OPM kind of ``node_id`` (``None`` when unknown)."""
        sid = self.pool.get(node_id)
        if sid is None or sid >= len(self._kinds):
            return None
        code = self._kinds[sid]
        return KIND_NAMES.get(code)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def run_ids(self) -> list[str]:
        with self._lock:
            sids = list(self._run_sids)
        return sorted(self.pool.lookup(sid) for sid in sids)

    def memory_bytes(self) -> int:
        """Approximate resident bytes of sealed columns + indexes
        (the tail's dict-based share is excluded — it is bounded by
        ``runs_per_segment``)."""
        return sum(segment.nbytes for segment in self.segments)

    def stats(self) -> dict[str, Any]:
        counts = self.manifest_counts()
        counts.update({
            "runs_per_segment": self.runs_per_segment,
            "sealed_bytes": self.memory_bytes(),
            "segments": [
                {"segment_id": segment.segment_id,
                 "sealed": segment.sealed,
                 "runs": segment.n_runs,
                 "nodes": segment.n_nodes,
                 "edges": segment.n_edges}
                for segment in self.snapshot()
            ],
        })
        return counts

    def __len__(self) -> int:
        return len(self._run_sids)

    def __repr__(self) -> str:
        return (f"ProvenanceStore({len(self._run_sids)} runs, "
                f"{len(self.segments)} sealed segments, "
                f"{self.tail.n_runs} in tail)")
