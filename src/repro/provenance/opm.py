"""The Open Provenance Model (OPM) v1.1 core.

Node kinds
----------
* :class:`Artifact` — an immutable piece of state (a value on a port, a
  dataset, a record).
* :class:`Process` — an action performed on or caused by artifacts.
* :class:`Agent` — a contextual entity controlling a process.

Edge kinds (cause <- effect, per the spec's arrow direction: an edge
points from effect to cause)
----------------------------
* ``used(process -> artifact, role)`` — the process consumed the artifact.
* ``wasGeneratedBy(artifact -> process, role)`` — the artifact was
  produced by the process.
* ``wasControlledBy(process -> agent, role)`` — the agent controlled the
  process.
* ``wasTriggeredBy(process -> process)`` — process started because of
  another process.
* ``wasDerivedFrom(artifact -> artifact)`` — artifact depends on another
  artifact.

Every node and edge may belong to *accounts* — named, possibly
overlapping views of the same execution (OPM §6).  Nodes carry an
``annotations`` dict used by the quality layer (reputation of a source
artifact, availability of a service process, ...).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro.errors import InvalidEdgeError, ProvenanceError, UnknownNodeError

__all__ = ["Node", "Artifact", "Process", "Agent", "Edge", "OPMGraph",
           "EDGE_KINDS"]

#: edge kind -> (effect node kind, cause node kind)
EDGE_KINDS: dict[str, tuple[str, str]] = {
    "used": ("process", "artifact"),
    "wasGeneratedBy": ("artifact", "process"),
    "wasControlledBy": ("process", "agent"),
    "wasTriggeredBy": ("process", "process"),
    "wasDerivedFrom": ("artifact", "artifact"),
}


class Node:
    """Common behaviour of OPM nodes."""

    kind = "node"

    def __init__(self, node_id: str, label: str = "",
                 value: Any = None,
                 accounts: Iterable[str] = (),
                 annotations: Mapping[str, Any] | None = None) -> None:
        if not node_id:
            raise ProvenanceError(f"{self.kind} needs an id")
        self.id = node_id
        self.label = label or node_id
        self.value = value
        self.accounts: set[str] = set(accounts)
        self.annotations: dict[str, Any] = dict(annotations or {})

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.id})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return self.kind == other.kind and self.id == other.id

    def __hash__(self) -> int:
        return hash((self.kind, self.id))

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "kind": self.kind,
            "label": self.label,
            "value": self.value,
            "accounts": sorted(self.accounts),
            "annotations": dict(self.annotations),
        }


class Artifact(Node):
    kind = "artifact"


class Process(Node):
    kind = "process"


class Agent(Node):
    kind = "agent"


_NODE_CLASSES: dict[str, type[Node]] = {
    "artifact": Artifact, "process": Process, "agent": Agent,
}


def node_from_dict(data: Mapping[str, Any]) -> Node:
    cls = _NODE_CLASSES.get(data.get("kind", ""))
    if cls is None:
        raise ProvenanceError(f"unknown node kind {data.get('kind')!r}")
    return cls(
        data["id"],
        label=data.get("label", ""),
        value=data.get("value"),
        accounts=data.get("accounts", ()),
        annotations=data.get("annotations"),
    )


class Edge:
    """One causal dependency.  ``effect`` depends on ``cause``."""

    __slots__ = ("kind", "effect", "cause", "role", "accounts")

    def __init__(self, kind: str, effect: str, cause: str,
                 role: str = "", accounts: Iterable[str] = ()) -> None:
        if kind not in EDGE_KINDS:
            raise InvalidEdgeError(f"unknown edge kind {kind!r}")
        self.kind = kind
        self.effect = effect
        self.cause = cause
        self.role = role
        self.accounts = set(accounts)

    def __repr__(self) -> str:
        role = f" role={self.role!r}" if self.role else ""
        return f"Edge({self.effect} -{self.kind}-> {self.cause}{role})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Edge):
            return NotImplemented
        return (self.kind, self.effect, self.cause, self.role) == (
            other.kind, other.effect, other.cause, other.role
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.effect, self.cause, self.role))

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "effect": self.effect,
            "cause": self.cause,
            "role": self.role,
            "accounts": sorted(self.accounts),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Edge":
        return cls(data["kind"], data["effect"], data["cause"],
                   role=data.get("role", ""),
                   accounts=data.get("accounts", ()))


class OPMGraph:
    """A validated OPM graph.

    Nodes are unique by (kind, id); ids are shared across kinds only if
    you enjoy confusion, so :meth:`add` also rejects reusing an id for a
    different kind.
    """

    def __init__(self, graph_id: str = "opm") -> None:
        self.id = graph_id
        self._nodes: dict[str, Node] = {}
        self._edges: list[Edge] = []

    def __repr__(self) -> str:
        return (
            f"OPMGraph({self.id}, {len(self._nodes)} nodes, "
            f"{len(self._edges)} edges)"
        )

    # -- nodes ----------------------------------------------------------

    def add(self, node: Node) -> Node:
        existing = self._nodes.get(node.id)
        if existing is not None:
            if existing.kind != node.kind:
                raise ProvenanceError(
                    f"id {node.id!r} already used by a {existing.kind}"
                )
            # merge accounts/annotations on re-add
            existing.accounts |= node.accounts
            existing.annotations.update(node.annotations)
            return existing
        self._nodes[node.id] = node
        return node

    def add_artifact(self, node_id: str, **kwargs: Any) -> Artifact:
        node = self.add(Artifact(node_id, **kwargs))
        assert isinstance(node, Artifact)
        return node

    def add_process(self, node_id: str, **kwargs: Any) -> Process:
        node = self.add(Process(node_id, **kwargs))
        assert isinstance(node, Process)
        return node

    def add_agent(self, node_id: str, **kwargs: Any) -> Agent:
        node = self.add(Agent(node_id, **kwargs))
        assert isinstance(node, Agent)
        return node

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"no node {node_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def nodes(self, kind: str | None = None) -> Iterator[Node]:
        for node in self._nodes.values():
            if kind is None or node.kind == kind:
                yield node

    def artifacts(self) -> Iterator[Artifact]:
        return (n for n in self.nodes("artifact"))  # type: ignore[return-value] - node iter

    def processes(self) -> Iterator[Process]:
        return (n for n in self.nodes("process"))  # type: ignore[return-value] - node iter

    def agents(self) -> Iterator[Agent]:
        return (n for n in self.nodes("agent"))  # type: ignore[return-value] - node iter

    # -- edges ----------------------------------------------------------

    def _check_endpoint(self, node_id: str, expected_kind: str,
                        edge_kind: str) -> None:
        node = self.node(node_id)
        if node.kind != expected_kind:
            raise InvalidEdgeError(
                f"{edge_kind} requires a {expected_kind} but {node_id!r} "
                f"is a {node.kind}"
            )

    def add_edge(self, edge: Edge) -> Edge:
        effect_kind, cause_kind = EDGE_KINDS[edge.kind]
        self._check_endpoint(edge.effect, effect_kind, edge.kind)
        self._check_endpoint(edge.cause, cause_kind, edge.kind)
        self._edges.append(edge)
        return edge

    def used(self, process: str, artifact: str, role: str = "") -> Edge:
        return self.add_edge(Edge("used", process, artifact, role=role))

    def was_generated_by(self, artifact: str, process: str,
                         role: str = "") -> Edge:
        return self.add_edge(
            Edge("wasGeneratedBy", artifact, process, role=role)
        )

    def was_controlled_by(self, process: str, agent: str,
                          role: str = "") -> Edge:
        return self.add_edge(
            Edge("wasControlledBy", process, agent, role=role)
        )

    def was_triggered_by(self, effect_process: str,
                         cause_process: str) -> Edge:
        return self.add_edge(
            Edge("wasTriggeredBy", effect_process, cause_process)
        )

    def was_derived_from(self, effect_artifact: str,
                         cause_artifact: str) -> Edge:
        return self.add_edge(
            Edge("wasDerivedFrom", effect_artifact, cause_artifact)
        )

    def edges(self, kind: str | None = None) -> Iterator[Edge]:
        for edge in self._edges:
            if kind is None or edge.kind == kind:
                yield edge

    def edges_from(self, effect: str, kind: str | None = None) -> Iterator[Edge]:
        """Edges whose *effect* end is ``effect`` (i.e. its causes)."""
        for edge in self._edges:
            if edge.effect != effect:
                continue
            if kind is not None and edge.kind != kind:
                continue
            yield edge

    def edges_to(self, cause: str) -> Iterator[Edge]:
        """Edges whose *cause* end is ``cause`` (i.e. its effects)."""
        for edge in self._edges:
            if edge.cause == cause:
                yield edge

    # -- accounts ----------------------------------------------------------

    def accounts(self) -> set[str]:
        names: set[str] = set()
        for node in self._nodes.values():
            names |= node.accounts
        for edge in self._edges:
            names |= edge.accounts
        return names

    def view(self, account: str) -> "OPMGraph":
        """The subgraph visible in ``account``."""
        sub = OPMGraph(f"{self.id}[{account}]")
        for node in self._nodes.values():
            if account in node.accounts:
                sub.add(node_from_dict(node.to_dict()))
        for edge in self._edges:
            if account in edge.accounts and (
                sub.has_node(edge.effect) and sub.has_node(edge.cause)
            ):
                sub.add_edge(Edge.from_dict(edge.to_dict()))
        return sub

    # -- composition -------------------------------------------------------

    def merge(self, other: "OPMGraph") -> None:
        """Union ``other`` into this graph (shared ids are merged)."""
        for node in other._nodes.values():
            self.add(node_from_dict(node.to_dict()))
        seen = set(self._edges)
        for edge in other._edges:
            if edge not in seen:
                self.add_edge(Edge.from_dict(edge.to_dict()))

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "nodes": [node.to_dict() for node in self._nodes.values()],
            "edges": [edge.to_dict() for edge in self._edges],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OPMGraph":
        graph = cls(data.get("id", "opm"))
        for node_data in data.get("nodes", ()):
            graph.add(node_from_dict(node_data))
        for edge_data in data.get("edges", ()):
            graph.add_edge(Edge.from_dict(edge_data))
        return graph
