"""Provenance-store rules (PR006-PR008): defects in archival segments.

Rules run on a :class:`StoreState` — a lenient, read-only snapshot of
a :class:`~repro.provenance.store.ProvenanceStore`'s segments.  As
with the graph rules, leniency is the point: the store itself cannot
*construct* a dangling edge, but a store document (damaged, truncated
or written by a future, buggier version) can carry one, and the linter
describes the damage instead of crashing.

* **PR006** — an edge endpoint inside a segment references a string id
  that is not interned as a node anywhere in the store (corrupted or
  truncated store document).
* **PR007** — a ``wasCachedFrom`` edge points at an originating
  process whose run was never archived: the replay chain exits the
  store and lineage queries dead-end.
* **PR008** — the active tail holds at least ``runs_per_segment``
  runs: auto-sealing did not fire, so recent runs are not yet
  compacted into a sealed segment (they stay durable as repository
  rows).
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import Rule, rule
from repro.provenance.store.columnar import (
    CACHED_FROM,
    EDGE_NAMES,
    KIND_CODES,
)

__all__ = ["StoreState"]

_KIND_NAMES = {code: name for name, code in KIND_CODES.items()}


class _SegmentView:
    """One segment (sealed or tail) of a :class:`StoreState`."""

    __slots__ = ("segment_id", "sealed", "runs", "node_sids", "edges")

    def __init__(self, segment_id: str, sealed: bool, runs: int,
                 node_sids: set[int],
                 edges: list[tuple[str, int, int]]) -> None:
        self.segment_id = segment_id
        self.sealed = sealed
        self.runs = runs
        self.node_sids = set(node_sids)
        self.edges = list(edges)

    def __repr__(self) -> str:
        return (
            f"_SegmentView({self.segment_id}, "
            f"{'sealed' if self.sealed else 'tail'}, "
            f"{len(self.edges)} edges)"
        )


class StoreState:
    """A read-only snapshot of an archival provenance store.

    ``node_kinds`` maps sid to kind name for every node interned
    anywhere in the store; ``names`` maps sid to the original string
    (best-effort — unnamed sids render as ``sid:N``).
    """

    def __init__(self, segments: list[_SegmentView],
                 node_kinds: Mapping[int, str],
                 names: Mapping[int, str],
                 tail_runs: int, runs_per_segment: int) -> None:
        self.segments = list(segments)
        self.node_kinds = dict(node_kinds)
        self.names = dict(names)
        self.tail_runs = tail_runs
        self.runs_per_segment = runs_per_segment

    def __repr__(self) -> str:
        return (
            f"StoreState({len(self.segments)} segments, "
            f"{len(self.node_kinds)} nodes)"
        )

    def name_of(self, sid: int) -> str:
        return self.names.get(sid, f"sid:{sid}")

    @classmethod
    def from_store(cls, store: Any) -> "StoreState":
        segments: list[_SegmentView] = []
        node_kinds: dict[int, str] = {}
        names: dict[int, str] = {}
        snapshot = store.snapshot()
        for segment in snapshot:
            if not segment.n_runs:
                continue  # the empty active tail
            for sid, kind_code in zip(segment.node_sids,
                                      segment.node_kinds):
                node_kinds[sid] = _KIND_NAMES.get(kind_code,
                                                  str(kind_code))
                names[sid] = store.pool.lookup(sid)
            edges = []
            for code, effect, cause in zip(segment.edge_kinds,
                                           segment.edge_effects,
                                           segment.edge_causes):
                kind = (EDGE_NAMES[code] if 0 <= code < len(EDGE_NAMES)
                        else str(code))
                edges.append((kind, effect, cause))
                for sid in (effect, cause):
                    if sid not in names:
                        names[sid] = store.pool.lookup(sid)
            segments.append(_SegmentView(
                segment.segment_id, segment.sealed, segment.n_runs,
                set(segment.node_sids), edges,
            ))
        return cls(segments, node_kinds, names,
                   tail_runs=snapshot[-1].n_runs,
                   runs_per_segment=store.runs_per_segment)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StoreState":
        """Lenient load of a store snapshot document::

            {"runs_per_segment": 256, "tail_runs": 3,
             "segments": [{"segment_id": "seg-00001", "sealed": true,
                           "runs": 2,
                           "nodes": [{"sid": 1, "kind": "artifact",
                                      "name": "run-0001/a1"}, ...],
                           "edges": [{"kind": "used", "effect": 2,
                                      "cause": 1}, ...]}]}

        Unknown kinds and dangling sids are preserved for the rules to
        report, never rejected.
        """
        segments: list[_SegmentView] = []
        node_kinds: dict[int, str] = {}
        names: dict[int, str] = {}
        for seg in data.get("segments", ()):
            node_sids: set[int] = set()
            for node in seg.get("nodes", ()):
                sid = int(node.get("sid", -1))
                if sid < 0:
                    continue
                node_sids.add(sid)
                node_kinds[sid] = str(node.get("kind", "artifact"))
                if node.get("name"):
                    names[sid] = str(node["name"])
            edges = [
                (str(edge.get("kind", "")),
                 int(edge.get("effect", -1)),
                 int(edge.get("cause", -1)))
                for edge in seg.get("edges", ())
            ]
            segments.append(_SegmentView(
                str(seg.get("segment_id", f"seg?{len(segments)}")),
                bool(seg.get("sealed", True)),
                int(seg.get("runs", 0)),
                node_sids, edges,
            ))
        return cls(segments, node_kinds, names,
                   tail_runs=int(data.get("tail_runs", 0)),
                   runs_per_segment=int(data.get("runs_per_segment",
                                                 256)))

    # -- helpers used by the rules -------------------------------------

    def is_node(self, sid: int) -> bool:
        return sid in self.node_kinds


def _loc(state: StoreState, segment: _SegmentView, *parts: str) -> str:
    return "/".join((f"store/segment:{segment.segment_id}",) + parts)


@rule("PR006", "provstore", "error",
      "segment edge endpoint is not an interned node of the store")
def _dangling_segment_endpoint(self: Rule, state: StoreState,
                               context: dict) -> Iterator[Diagnostic]:
    for segment in state.segments:
        for index, (kind, effect, cause) in enumerate(segment.edges):
            ends = [("effect", effect), ("cause", cause)]
            if kind == CACHED_FROM:
                ends = ends[:1]  # the exiting cause is PR007's business
            for end, sid in ends:
                if not state.is_node(sid):
                    yield self.emit(
                        _loc(state, segment, f"edge:{index}"),
                        f"{kind} edge {end} {state.name_of(sid)!r} is "
                        "not interned as a node anywhere in the store",
                        suggestion="the store document is damaged or "
                        "truncated; rebuild the index from the "
                        "repository rows (ProvenanceRepository does "
                        "so on attach)",
                    )


@rule("PR007", "provstore", "warning",
      "wasCachedFrom chain exits the store")
def _cached_chain_exits(self: Rule, state: StoreState,
                        context: dict) -> Iterator[Diagnostic]:
    for segment in state.segments:
        for index, (kind, effect, cause) in enumerate(segment.edges):
            if kind != CACHED_FROM:
                continue
            if not state.is_node(cause):
                yield self.emit(
                    _loc(state, segment, f"edge:{index}"),
                    f"process {state.name_of(effect)!r} replays "
                    f"{state.name_of(cause)!r}, whose run was never "
                    "archived — the replay chain dead-ends outside "
                    "the store",
                    suggestion="archive the originating run before "
                    "its replays, or re-ingest it from the "
                    "repository rows",
                )


@rule("PR008", "provstore", "warning",
      "active tail holds a full segment of unsealed runs")
def _seal_overdue(self: Rule, state: StoreState,
                  context: dict) -> Iterator[Diagnostic]:
    if state.runs_per_segment > 0 \
            and state.tail_runs >= state.runs_per_segment:
        yield self.emit(
            "store/tail",
            f"the active tail holds {state.tail_runs} runs but "
            f"segments seal at {state.runs_per_segment} — auto-"
            "sealing did not run, so these runs are not yet "
            "compacted into a sealed segment",
            suggestion="call ProvenanceStore.seal() (or lower "
            "runs_per_segment); the runs stay durable as repository "
            "rows either way",
        )
