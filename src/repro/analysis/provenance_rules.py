"""Provenance rules (PR0xx): defects in OPM graphs.

Rules run on a :class:`GraphState` — a lenient, read-only view of an
OPM graph.  Leniency matters: :class:`~repro.provenance.opm.OPMGraph`
refuses to *construct* a dangling edge, but serialized provenance
arriving from elsewhere (an exchange partner, a damaged archive) can
carry one, and the linter's job is to describe the damage rather than
crash on it.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import Rule, rule
from repro.provenance.graph import kahn_order
from repro.provenance.opm import EDGE_KINDS, OPMGraph

__all__ = ["GraphState"]


class _EdgeView:
    """One edge of a :class:`GraphState` (kind, effect, cause, role)."""

    __slots__ = ("kind", "effect", "cause", "role")

    def __init__(self, kind: str, effect: str, cause: str,
                 role: str = "") -> None:
        self.kind = kind
        self.effect = effect
        self.cause = cause
        self.role = role

    def __repr__(self) -> str:
        return f"_EdgeView({self.effect} -{self.kind}-> {self.cause})"


class GraphState:
    """A read-only snapshot of an OPM graph for the provenance rules.

    ``nodes`` maps node id to kind; ``annotations`` maps node id to its
    annotation dict (shallow copies — rules must not mutate the graph
    they analyze, and this view makes that structural).
    """

    def __init__(self, graph_id: str, nodes: Mapping[str, str],
                 edges: list[_EdgeView],
                 annotations: Mapping[str, Mapping[str, Any]],
                 labels: Mapping[str, str]) -> None:
        self.id = graph_id
        self.nodes = dict(nodes)
        self.edges = list(edges)
        self.annotations = {k: dict(v) for k, v in annotations.items()}
        self.labels = dict(labels)

    def __repr__(self) -> str:
        return (
            f"GraphState({self.id}, {len(self.nodes)} nodes, "
            f"{len(self.edges)} edges)"
        )

    @classmethod
    def from_graph(cls, graph: OPMGraph) -> "GraphState":
        return cls(
            graph.id,
            {node.id: node.kind for node in graph.nodes()},
            [_EdgeView(e.kind, e.effect, e.cause, e.role)
             for e in graph.edges()],
            {node.id: node.annotations for node in graph.nodes()},
            {node.id: node.label for node in graph.nodes()},
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GraphState":
        """Lenient load: dangling edges and odd kinds are preserved for
        the rules to report, never rejected."""
        nodes: dict[str, str] = {}
        annotations: dict[str, dict[str, Any]] = {}
        labels: dict[str, str] = {}
        for node in data.get("nodes", ()):
            node_id = str(node.get("id", ""))
            if not node_id:
                continue
            nodes[node_id] = str(node.get("kind", "artifact"))
            annotations[node_id] = dict(node.get("annotations") or {})
            labels[node_id] = str(node.get("label", node_id))
        edges = [
            _EdgeView(str(edge.get("kind", "")),
                      str(edge.get("effect", "")),
                      str(edge.get("cause", "")),
                      str(edge.get("role", "")))
            for edge in data.get("edges", ())
        ]
        return cls(str(data.get("id", "opm")), nodes, edges,
                   annotations, labels)

    # -- helpers used by the rules -------------------------------------

    def artifacts(self) -> list[str]:
        return sorted(n for n, kind in self.nodes.items()
                      if kind == "artifact")

    def edges_of_kind(self, kind: str) -> list[_EdgeView]:
        return [edge for edge in self.edges if edge.kind == kind]

    def is_migration_process(self, node_id: str) -> bool:
        if self.nodes.get(node_id) != "process":
            return False
        notes = self.annotations.get(node_id, {})
        return ("to_format" in notes
                or self.labels.get(node_id) == "format migration")


def _loc(state: GraphState, *parts: str) -> str:
    return "/".join((f"graph:{state.id}",) + parts)


@rule("PR001", "provenance", "error",
      "provenance graph contains a causal cycle")
def _provenance_cycle(self: Rule, state: GraphState,
                      context: dict) -> Iterator[Diagnostic]:
    # Kahn over effect -> cause edges; leftovers are cyclic.  Dangling
    # edges are PR003's business.
    order = kahn_order(state.nodes, (
        (edge.effect, edge.cause) for edge in state.edges
        if edge.effect in state.nodes and edge.cause in state.nodes))
    if len(order) != len(state.nodes):
        cyclic = sorted(set(state.nodes) - set(order))
        yield self.emit(
            _loc(state),
            "causal cycle involving "
            + ", ".join(cyclic[:6])
            + ("…" if len(cyclic) > 6 else ""),
            suggestion="OPM graphs describe past executions and must "
            "be acyclic",
        )


@rule("PR002", "provenance", "warning",
      "artifact participates in no causal edge")
def _orphan_artifact(self: Rule, state: GraphState,
                     context: dict) -> Iterator[Diagnostic]:
    touched: set[str] = set()
    for edge in state.edges:
        touched.add(edge.effect)
        touched.add(edge.cause)
    for artifact in state.artifacts():
        if artifact not in touched:
            yield self.emit(
                _loc(state, f"artifact:{artifact}"),
                f"artifact {artifact!r} has no generating process and "
                "no consumer — it is causally disconnected",
                suggestion="record wasGeneratedBy/used edges or drop "
                "the node",
            )


@rule("PR003", "provenance", "error",
      "edge endpoint references a node absent from the graph")
def _dangling_endpoint(self: Rule, state: GraphState,
                       context: dict) -> Iterator[Diagnostic]:
    for index, edge in enumerate(state.edges):
        for end, node_id in (("effect", edge.effect),
                             ("cause", edge.cause)):
            if node_id not in state.nodes:
                yield self.emit(
                    _loc(state, f"edge:{index}"),
                    f"{edge.kind} edge {end} {node_id!r} is not a node "
                    "of this graph",
                    suggestion="add the node or remove the edge",
                )


@rule("PR004", "provenance", "error",
      "migrated artifact lacks a wasDerivedFrom account")
def _missing_derivation(self: Rule, state: GraphState,
                        context: dict) -> Iterator[Diagnostic]:
    derived_from = {edge.effect for edge in
                    state.edges_of_kind("wasDerivedFrom")}
    for process_id in sorted(state.nodes):
        if not state.is_migration_process(process_id):
            continue
        generated = sorted(
            edge.effect for edge in state.edges_of_kind("wasGeneratedBy")
            if edge.cause == process_id
        )
        for artifact in generated:
            if artifact not in derived_from:
                yield self.emit(
                    _loc(state, f"artifact:{artifact}"),
                    f"artifact {artifact!r} was generated by migration "
                    f"process {process_id!r} but carries no "
                    "wasDerivedFrom link to its source",
                    suggestion="record wasDerivedFrom(derived, source) "
                    "so the lineage survives replica churn",
                )


@rule("PR005", "provenance", "error",
      "edge connects node kinds the OPM spec does not allow")
def _edge_kind_mismatch(self: Rule, state: GraphState,
                        context: dict) -> Iterator[Diagnostic]:
    for index, edge in enumerate(state.edges):
        expected = EDGE_KINDS.get(edge.kind)
        if expected is None:
            yield self.emit(
                _loc(state, f"edge:{index}"),
                f"unknown edge kind {edge.kind!r}",
                suggestion="use one of " + ", ".join(sorted(EDGE_KINDS)),
            )
            continue
        effect_kind, cause_kind = expected
        for end, node_id, wanted in (("effect", edge.effect, effect_kind),
                                     ("cause", edge.cause, cause_kind)):
            actual = state.nodes.get(node_id)
            if actual is not None and actual != wanted:
                yield self.emit(
                    _loc(state, f"edge:{index}"),
                    f"{edge.kind} requires a {wanted} {end} but "
                    f"{node_id!r} is a {actual}",
                    suggestion="fix the edge kind or the node kind",
                )
