"""OPM graph queries: lineage, sources, ordering."""

import pytest

from repro.errors import ProvenanceError
from repro.provenance.graph import (
    ancestors,
    derivation_sources,
    descendants,
    is_acyclic,
    lineage_subgraph,
    shortest_causal_path,
    summarize,
    topological_processes,
)
from repro.provenance.opm import OPMGraph


@pytest.fixture()
def pipeline_graph():
    """source -> p1 -> mid -> p2 -> out, operated by one agent."""
    g = OPMGraph("pipeline")
    g.add_artifact("source")
    g.add_artifact("mid")
    g.add_artifact("out")
    g.add_process("p1")
    g.add_process("p2")
    g.add_agent("agent")
    g.used("p1", "source")
    g.was_generated_by("mid", "p1")
    g.used("p2", "mid")
    g.was_generated_by("out", "p2")
    g.was_derived_from("mid", "source")
    g.was_derived_from("out", "mid")
    g.was_triggered_by("p2", "p1")
    g.was_controlled_by("p1", "agent")
    g.was_controlled_by("p2", "agent")
    return g


class TestAncestors:
    def test_full_closure(self, pipeline_graph):
        result = ancestors(pipeline_graph, "out")
        assert {"mid", "source", "p1", "p2", "agent"} <= result
        assert "out" not in result

    def test_restricted_to_derivations(self, pipeline_graph):
        result = ancestors(pipeline_graph, "out", kinds=["wasDerivedFrom"])
        assert result == {"mid", "source"}

    def test_source_has_no_ancestors(self, pipeline_graph):
        assert ancestors(pipeline_graph, "source") == set()


class TestDescendants:
    def test_from_source(self, pipeline_graph):
        result = descendants(pipeline_graph, "source")
        assert {"p1", "mid", "p2", "out"} <= result

    def test_leaf_has_none(self, pipeline_graph):
        assert descendants(pipeline_graph, "out") == set()


class TestDerivationSources:
    def test_finds_ungenerated_artifacts(self, pipeline_graph):
        assert derivation_sources(pipeline_graph, "out") == {"source"}

    def test_source_of_itself_is_empty(self, pipeline_graph):
        assert derivation_sources(pipeline_graph, "source") == set()

    def test_two_sources(self):
        g = OPMGraph()
        for a in ("in1", "in2", "out"):
            g.add_artifact(a)
        g.add_process("p")
        g.used("p", "in1")
        g.used("p", "in2")
        g.was_generated_by("out", "p")
        g.was_derived_from("out", "in1")
        g.was_derived_from("out", "in2")
        assert derivation_sources(g, "out") == {"in1", "in2"}


class TestSubgraphAndPaths:
    def test_lineage_subgraph_closed(self, pipeline_graph):
        sub = lineage_subgraph(pipeline_graph, "mid")
        assert sub.has_node("source")
        assert sub.has_node("p1")
        assert not sub.has_node("out")
        # edges fully inside the closure survive
        assert any(e.kind == "used" for e in sub.edges())

    def test_shortest_path(self, pipeline_graph):
        path = shortest_causal_path(pipeline_graph, "out", "source")
        assert path[0] == "out"
        assert path[-1] == "source"

    def test_no_path(self, pipeline_graph):
        assert shortest_causal_path(pipeline_graph, "source", "out") is None

    def test_missing_node(self, pipeline_graph):
        assert shortest_causal_path(pipeline_graph, "ghost", "out") is None


class TestStructure:
    def test_acyclic(self, pipeline_graph):
        assert is_acyclic(pipeline_graph)

    def test_topological_processes(self, pipeline_graph):
        order = topological_processes(pipeline_graph)
        assert order.index("p1") < order.index("p2")

    def test_cycle_detected(self, pipeline_graph):
        pipeline_graph.was_triggered_by("p1", "p2")
        assert not is_acyclic(pipeline_graph)
        with pytest.raises(ProvenanceError, match="cycle"):
            topological_processes(pipeline_graph)

    def test_independent_processes_in_name_order(self):
        g = OPMGraph()
        for process in ("zeta", "alpha", "mid"):
            g.add_process(process)
        g.was_triggered_by("alpha", "zeta")
        # zeta must precede alpha; mid is free and sorts by name
        assert topological_processes(g) == ["mid", "zeta", "alpha"]

    def test_summarize(self, pipeline_graph):
        summary = summarize(pipeline_graph)
        assert summary["artifacts"] == 3
        assert summary["processes"] == 2
        assert summary["agents"] == 1
        assert summary["used"] == 2
        assert summary["wasDerivedFrom"] == 2
