"""Bounded-memory lineage traversals over store segments.

Archival lineage queries cannot assume the answer fits in memory: the
transitive closure of a heavily-shared artifact in a million-run store
can touch most of the graph.  Every traversal here is an *iterative
frontier walk* (no recursion, no materialized subgraphs) carrying an
explicit :class:`TraversalBudget`:

* ``max_nodes`` caps the visited set — the only structure whose size
  grows with the answer;
* ``max_depth`` caps the frontier distance from the start node.

When a budget trips, the walk stops and the :class:`LineageResult`
says so (``truncated=True``) instead of silently returning a wrong
"complete" answer.  Segment boundaries are invisible to the caller:
each frontier expansion unions the adjacency of every sealed segment
plus the active tail, which is what makes *cross-run* lineage (cache
replay chains, vault objects re-audited over the years) a single walk.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from repro.errors import ProvenanceError
from repro.provenance.store.columnar import (
    CACHED_FROM,
    EDGE_CODES,
    OPM_EDGE_CODES,
)

__all__ = ["TraversalBudget", "LineageResult", "frontier_walk",
           "resolve_edge_codes"]

#: ceilings applied when the caller does not pass a budget — generous,
#: but finite: an archival store must never hand out an unbounded walk
DEFAULT_MAX_NODES = 100_000


class TraversalBudget:
    """Explicit bounds for one lineage traversal."""

    __slots__ = ("max_nodes", "max_depth")

    def __init__(self, max_nodes: int = DEFAULT_MAX_NODES,
                 max_depth: int | None = None) -> None:
        if max_nodes < 1:
            raise ProvenanceError("max_nodes must be >= 1")
        if max_depth is not None and max_depth < 0:
            raise ProvenanceError("max_depth must be >= 0")
        self.max_nodes = max_nodes
        self.max_depth = max_depth

    def __repr__(self) -> str:
        return (f"TraversalBudget(max_nodes={self.max_nodes}, "
                f"max_depth={self.max_depth})")


class LineageResult:
    """The outcome of one bounded traversal.

    ``node_ids`` excludes the start node (mirroring
    :func:`repro.provenance.graph.ancestors`).  ``truncated`` means a
    budget stopped the walk before the frontier drained; ``visited``
    counts nodes actually expanded, ``depth_reached`` the deepest
    frontier level entered.
    """

    __slots__ = ("start", "direction", "node_ids", "truncated",
                 "visited", "depth_reached")

    def __init__(self, start: str, direction: str,
                 node_ids: list[str], truncated: bool,
                 visited: int, depth_reached: int) -> None:
        self.start = start
        self.direction = direction
        self.node_ids = node_ids
        self.truncated = truncated
        self.visited = visited
        self.depth_reached = depth_reached

    def __repr__(self) -> str:
        flag = ", truncated" if self.truncated else ""
        return (f"LineageResult({self.direction}({self.start}): "
                f"{len(self.node_ids)} nodes{flag})")

    def __len__(self) -> int:
        return len(self.node_ids)

    def __iter__(self):
        return iter(self.node_ids)

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "direction": self.direction,
            "nodes": list(self.node_ids),
            "truncated": self.truncated,
            "visited": self.visited,
            "depth_reached": self.depth_reached,
        }


def resolve_edge_codes(kinds: Iterable[str] | None) -> tuple[int, ...]:
    """Edge kind names -> codes.  ``None`` means the five OPM causal
    kinds; ``wasCachedFrom`` is followed only when named explicitly."""
    if kinds is None:
        return OPM_EDGE_CODES
    codes = []
    for kind in kinds:
        code = EDGE_CODES.get(kind)
        if code is None:
            raise ProvenanceError(
                f"unknown edge kind {kind!r}; expected one of "
                + ", ".join(sorted(EDGE_CODES)))
        codes.append(code)
    return tuple(codes)


def frontier_walk(segments: Sequence, start_sids: Sequence[int], *,
                  codes: tuple[int, ...],
                  forward: bool,
                  budget: TraversalBudget) -> tuple[set[int], bool,
                                                    int, int]:
    """Breadth-first walk from ``start_sids`` across ``segments``.

    ``forward=True`` follows edges effect -> cause (ancestors in OPM's
    arrow convention); ``forward=False`` walks cause -> effect
    (descendants).  Returns ``(seen sids, truncated, visited,
    depth_reached)``; ``seen`` excludes the start nodes.

    Memory is bounded by ``budget.max_nodes``: the visited set and the
    frontier are the only growing structures and neither admits a node
    beyond the cap.
    """
    starts = set(start_sids)
    seen: set[int] = set()
    frontier: deque[tuple[int, int]] = deque(
        (sid, 0) for sid in start_sids)
    truncated = False
    visited = 0
    depth_reached = 0
    while frontier:
        current, depth = frontier.popleft()
        if budget.max_depth is not None and depth >= budget.max_depth:
            # neighbors of this node would exceed the depth bound; if
            # it has any unseen ones, the answer is incomplete
            if _has_unseen_neighbor(segments, current, codes, forward,
                                    seen, starts):
                truncated = True
            continue
        visited += 1
        depth_reached = max(depth_reached, depth)
        for code in codes:
            for segment in segments:
                for neighbor in segment.neighbors(code, current,
                                                  forward=forward):
                    if neighbor in seen or neighbor in starts:
                        continue
                    if len(seen) >= budget.max_nodes:
                        truncated = True
                        return seen, truncated, visited, depth_reached
                    seen.add(neighbor)
                    frontier.append((neighbor, depth + 1))
    return seen, truncated, visited, depth_reached


def _has_unseen_neighbor(segments: Sequence, sid: int,
                         codes: tuple[int, ...], forward: bool,
                         seen: set[int], starts: set[int]) -> bool:
    for code in codes:
        for segment in segments:
            for neighbor in segment.neighbors(code, sid,
                                              forward=forward):
                if neighbor not in seen and neighbor not in starts:
                    return True
    return False


def cached_chain(segments: Sequence, start_sid: int, *,
                 budget: TraversalBudget) -> tuple[list[int], bool]:
    """Follow ``wasCachedFrom`` links from a process to the execution
    that originally produced its outputs.

    Returns (chain of sids starting at ``start_sid``, truncated).  A
    process has at most one replay source, so the walk follows the
    first edge it finds; a cycle (replay annotations that loop back,
    which only hand-built or damaged graphs hold) terminates the walk
    with ``truncated=True``.
    """
    code = EDGE_CODES[CACHED_FROM]
    chain = [start_sid]
    on_chain = {start_sid}
    truncated = False
    while True:
        if len(chain) > budget.max_nodes:
            return chain, True
        current = chain[-1]
        targets: list[int] = []
        for segment in segments:
            targets.extend(segment.neighbors(code, current,
                                             forward=True))
        if not targets:
            return chain, truncated
        target = targets[0]
        if target in on_chain:
            # a replay loop can only come from damage; report it
            return chain, True
        chain.append(target)
        on_chain.add(target)
