"""Columnar graph segments with CSR adjacency indexes.

A segment holds a batch of runs' provenance as flat integer columns
(every string routed through the store's :class:`StringPool`):

* one **node row** per (run, node) observation — node sid, kind code,
  label sid, run sid;
* one **edge row** per causal edge — kind code, effect sid, cause sid,
  role sid.

Two segment forms exist:

* :class:`SegmentBuilder` — the *active tail*.  Mutable, dict-based
  adjacency so queries stay answerable while runs accumulate.
* :class:`SealedSegment` — immutable.  Columns become ``array``
  vectors and the adjacency becomes CSR (compressed sparse row)
  indexes: per edge kind, a *forward* index (effect -> causes; the
  "where did it come from" direction OPM arrows point in) and a
  *backward* index (cause -> effects).  Lookups are a binary search
  plus a contiguous slice — no per-node Python objects survive.

Edge kind 5, ``wasCachedFrom``, is a store-level materialization: the
engine records cache replays as a *process annotation* (the OPM graph
of a single run cannot hold an edge to a process of another run), and
the builder lifts that annotation into a typed cross-run edge so chain
resolution is an index walk instead of an annotation hunt.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterator

from repro.errors import ProvenanceError
from repro.provenance.opm import OPMGraph
from repro.provenance.store.interning import StringPool

__all__ = [
    "CSRIndex",
    "SegmentBuilder",
    "SealedSegment",
    "KIND_CODES",
    "KIND_NAMES",
    "EDGE_CODES",
    "EDGE_NAMES",
    "CACHED_FROM",
]

#: node kind -> code
KIND_CODES: dict[str, int] = {"artifact": 0, "process": 1, "agent": 2}
KIND_NAMES: dict[int, str] = {v: k for k, v in KIND_CODES.items()}

#: the store-level edge vocabulary: OPM's five kinds plus the
#: materialized cache-replay edge
CACHED_FROM = "wasCachedFrom"
EDGE_NAMES: tuple[str, ...] = (
    "used", "wasGeneratedBy", "wasControlledBy", "wasTriggeredBy",
    "wasDerivedFrom", CACHED_FROM,
)
EDGE_CODES: dict[str, int] = {n: c for c, n in enumerate(EDGE_NAMES)}

#: edge kind codes queries follow by default — OPM causal kinds only;
#: wasCachedFrom must be asked for explicitly
OPM_EDGE_CODES: tuple[int, ...] = tuple(range(5))

#: typecode of every sid vector: int32 halves resident bytes vs "q",
#: and 2**31 interned strings is far beyond an in-process dictionary
SID = "i"


class CSRIndex:
    """Key -> values adjacency as three flat int vectors.

    ``keys`` is sorted and unique; ``offsets[i]:offsets[i+1]`` slices
    ``values`` for ``keys[i]``.  Built once at seal time from (key,
    value) pairs; lookups are O(log k) bisect + O(degree) slice.
    """

    __slots__ = ("_keys", "_offsets", "_values")

    def __init__(self, keys: array, offsets: array, values: array) -> None:
        self._keys = keys
        self._offsets = offsets
        self._values = values

    @classmethod
    def build(cls, pairs: list[tuple[int, int]]) -> "CSRIndex":
        pairs.sort()
        keys = array(SID)
        offsets = array(SID, [0])
        values = array(SID)
        previous: int | None = None
        for key, value in pairs:
            if key != previous:
                if previous is not None:
                    offsets.append(len(values))
                keys.append(key)
                previous = key
            values.append(value)
        if previous is not None:
            offsets.append(len(values))
        return cls(keys, offsets, values)

    def neighbors(self, key: int) -> array:
        """The values of ``key`` (empty array when absent)."""
        position = bisect_left(self._keys, key)
        if position == len(self._keys) or self._keys[position] != key:
            return array(SID)
        return self._values[self._offsets[position]:
                            self._offsets[position + 1]]

    def __contains__(self, key: int) -> bool:
        position = bisect_left(self._keys, key)
        return (position < len(self._keys)
                and self._keys[position] == key)

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def nbytes(self) -> int:
        return (self._keys.itemsize * len(self._keys)
                + self._offsets.itemsize * len(self._offsets)
                + self._values.itemsize * len(self._values))


def _lift_cached_from(graph: OPMGraph) -> Iterator[tuple[str, str]]:
    """(effect process id, cause process id) pairs for every cache
    replay recorded as a ``wasCachedFrom`` annotation."""
    for node in graph.nodes("process"):
        target = node.annotations.get(CACHED_FROM)
        if isinstance(target, str) and target and target != node.id:
            yield node.id, target


class SegmentBuilder:
    """The store's active tail: mutable columns + dict adjacency."""

    sealed = False

    def __init__(self, segment_id: str, pool: StringPool) -> None:
        self.segment_id = segment_id
        self.pool = pool
        self.run_sids: list[int] = []
        # node columns
        self.node_sids: list[int] = []
        self.node_kinds: list[int] = []
        self.node_labels: list[int] = []
        self.node_runs: list[int] = []
        # edge columns
        self.edge_kinds: list[int] = []
        self.edge_effects: list[int] = []
        self.edge_causes: list[int] = []
        self.edge_roles: list[int] = []
        # live adjacency: (edge code, sid) -> neighbor sids
        self._forward: dict[tuple[int, int], list[int]] = {}
        self._backward: dict[tuple[int, int], list[int]] = {}
        self._node_runs: dict[int, list[int]] = {}
        self._run_nodes: dict[int, list[int]] = {}

    # -- ingest --------------------------------------------------------

    def add_graph(self, run_id: str, graph: OPMGraph) -> tuple[int, int]:
        """Intern and append one run's graph; returns (nodes, edges)
        appended (cache-replay edges count)."""
        run_sid = self.pool.intern(run_id)
        self.run_sids.append(run_sid)
        self._run_nodes.setdefault(run_sid, [])
        nodes = edges = 0
        for node in graph.nodes():
            sid = self.pool.intern(node.id)
            self.node_sids.append(sid)
            self.node_kinds.append(KIND_CODES[node.kind])
            self.node_labels.append(self.pool.intern(node.label))
            self.node_runs.append(run_sid)
            self._node_runs.setdefault(sid, []).append(run_sid)
            self._run_nodes[run_sid].append(sid)
            nodes += 1
        for edge in graph.edges():
            self._append_edge(EDGE_CODES[edge.kind],
                              self.pool.intern(edge.effect),
                              self.pool.intern(edge.cause),
                              self.pool.intern(edge.role))
            edges += 1
        for effect_id, cause_id in _lift_cached_from(graph):
            self._append_edge(EDGE_CODES[CACHED_FROM],
                              self.pool.intern(effect_id),
                              self.pool.intern(cause_id),
                              self.pool.intern("cache-replay"))
            edges += 1
        return nodes, edges

    def _append_edge(self, code: int, effect: int, cause: int,
                     role: int) -> None:
        self.edge_kinds.append(code)
        self.edge_effects.append(effect)
        self.edge_causes.append(cause)
        self.edge_roles.append(role)
        self._forward.setdefault((code, effect), []).append(cause)
        self._backward.setdefault((code, cause), []).append(effect)

    # -- query surface (shared with SealedSegment) ---------------------

    def neighbors(self, code: int, sid: int, *,
                  forward: bool = True) -> list[int]:
        table = self._forward if forward else self._backward
        return table.get((code, sid), [])

    def runs_of(self, sid: int) -> list[int]:
        return self._node_runs.get(sid, [])

    def nodes_of_run(self, run_sid: int) -> list[int]:
        return self._run_nodes.get(run_sid, [])

    def has_node(self, sid: int) -> bool:
        return sid in self._node_runs

    @property
    def n_runs(self) -> int:
        return len(self.run_sids)

    @property
    def n_nodes(self) -> int:
        return len(self.node_sids)

    @property
    def n_edges(self) -> int:
        return len(self.edge_kinds)

    # -- sealing -------------------------------------------------------

    def seal(self) -> "SealedSegment":
        if not self.run_sids:
            raise ProvenanceError(
                f"segment {self.segment_id!r} has no runs to seal")
        return SealedSegment(
            self.segment_id,
            array(SID, self.run_sids),
            array(SID, self.node_sids),
            array("b", self.node_kinds),
            array(SID, self.node_labels),
            array(SID, self.node_runs),
            array("b", self.edge_kinds),
            array(SID, self.edge_effects),
            array(SID, self.edge_causes),
            array(SID, self.edge_roles),
        )


class SealedSegment:
    """An immutable columnar segment with CSR adjacency."""

    sealed = True

    def __init__(self, segment_id: str, run_sids: array,
                 node_sids: array, node_kinds: array,
                 node_labels: array, node_runs: array,
                 edge_kinds: array, edge_effects: array,
                 edge_causes: array, edge_roles: array) -> None:
        self.segment_id = segment_id
        self.run_sids = run_sids
        self.node_sids = node_sids
        self.node_kinds = node_kinds
        self.node_labels = node_labels
        self.node_runs = node_runs
        self.edge_kinds = edge_kinds
        self.edge_effects = edge_effects
        self.edge_causes = edge_causes
        self.edge_roles = edge_roles
        self._forward, self._backward = self._build_adjacency()
        self._node_runs_index = CSRIndex.build(
            list(zip(node_sids, node_runs)))
        self._run_nodes_index = CSRIndex.build(
            list(zip(node_runs, node_sids)))

    def _build_adjacency(self) -> tuple[dict[int, CSRIndex],
                                        dict[int, CSRIndex]]:
        forward_pairs: dict[int, list[tuple[int, int]]] = {}
        backward_pairs: dict[int, list[tuple[int, int]]] = {}
        for code, effect, cause in zip(self.edge_kinds,
                                       self.edge_effects,
                                       self.edge_causes):
            forward_pairs.setdefault(code, []).append((effect, cause))
            backward_pairs.setdefault(code, []).append((cause, effect))
        return (
            {code: CSRIndex.build(pairs)
             for code, pairs in forward_pairs.items()},
            {code: CSRIndex.build(pairs)
             for code, pairs in backward_pairs.items()},
        )

    def __repr__(self) -> str:
        return (f"SealedSegment({self.segment_id}, {self.n_runs} runs, "
                f"{self.n_nodes} nodes, {self.n_edges} edges)")

    # -- query surface -------------------------------------------------

    def neighbors(self, code: int, sid: int, *,
                  forward: bool = True) -> array:
        table = self._forward if forward else self._backward
        index = table.get(code)
        if index is None:
            return array(SID)
        return index.neighbors(sid)

    def runs_of(self, sid: int) -> array:
        return self._node_runs_index.neighbors(sid)

    def nodes_of_run(self, run_sid: int) -> array:
        return self._run_nodes_index.neighbors(run_sid)

    def has_node(self, sid: int) -> bool:
        return sid in self._node_runs_index

    @property
    def n_runs(self) -> int:
        return len(self.run_sids)

    @property
    def n_nodes(self) -> int:
        return len(self.node_sids)

    @property
    def n_edges(self) -> int:
        return len(self.edge_kinds)

    @property
    def nbytes(self) -> int:
        """Approximate resident bytes of the columns + indexes."""
        columns = sum(
            vector.itemsize * len(vector)
            for vector in (self.run_sids, self.node_sids,
                           self.node_kinds, self.node_labels,
                           self.node_runs, self.edge_kinds,
                           self.edge_effects, self.edge_causes,
                           self.edge_roles)
        )
        indexes = sum(index.nbytes
                      for table in (self._forward, self._backward)
                      for index in table.values())
        indexes += (self._node_runs_index.nbytes
                    + self._run_nodes_index.nbytes)
        return columns + indexes
