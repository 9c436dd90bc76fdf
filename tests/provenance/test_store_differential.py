"""Differential testing: store lineage vs. a brute-force graph model.

Hypothesis generates randomized multi-run corpora (artifact/process
topologies, cross-run cache-replay chains, shared ``cas:`` objects);
every corpus is ingested into a :class:`ProvenanceStore` and the
store's answers are compared against the obvious reference — merge all
OPM graphs into one in-memory edge list and BFS it without any
interning, segmentation or budgets.  Sealing points are randomized
too, so the same corpus exercises sealed-CSR, tail-dict and mixed
layouts; a repository reattached to the recovered journal must not
change any answer.
"""

from __future__ import annotations

import datetime as dt
import tempfile
from collections import deque
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.provenance.opm import OPMGraph
from repro.provenance.repository import ProvenanceRepository
from repro.provenance.store import ProvenanceStore, TraversalBudget
from repro.storage import Database
from repro.workflow.trace import WorkflowTrace

# one corpus: [(run_id, graph spec)], where a spec fixes artifact
# count, used/generated/derived wiring and an optional replay target


@st.composite
def corpora(draw):
    n_runs = draw(st.integers(min_value=1, max_value=5))
    runs = []
    for index in range(n_runs):
        run_id = f"run-{index}"
        n_artifacts = draw(st.integers(min_value=1, max_value=4))
        n_processes = draw(st.integers(min_value=1, max_value=2))
        uses = draw(st.lists(
            st.tuples(st.integers(0, n_processes - 1),
                      st.integers(0, n_artifacts - 1)),
            max_size=4))
        generates = draw(st.lists(
            st.tuples(st.integers(0, n_artifacts - 1),
                      st.integers(0, n_processes - 1)),
            max_size=4))
        derives = draw(st.lists(
            st.tuples(st.integers(0, n_artifacts - 1),
                      st.integers(0, n_artifacts - 1)),
            max_size=3))
        shares_cas = draw(st.booleans())
        cached_target = None
        if index > 0 and draw(st.booleans()):
            cached_target = f"run-{draw(st.integers(0, index - 1))}/p0"
        runs.append((run_id, n_artifacts, n_processes, uses,
                     generates, derives, shares_cas, cached_target))
    seal_every = draw(st.sampled_from([None, 1, 2]))
    return runs, seal_every


def _build_graph(spec) -> OPMGraph:
    (run_id, n_artifacts, n_processes, uses, generates, derives,
     shares_cas, cached_target) = spec
    graph = OPMGraph(run_id)
    artifacts = [f"{run_id}/a{i}" for i in range(n_artifacts)]
    for artifact in artifacts:
        graph.add_artifact(artifact)
    if shares_cas:
        graph.add_artifact("cas:shared")
        artifacts.append("cas:shared")
    for p in range(n_processes):
        annotations = {}
        if p == 0 and cached_target is not None:
            annotations["wasCachedFrom"] = cached_target
        graph.add_process(f"{run_id}/p{p}", annotations=annotations)
    for p, a in uses:
        graph.used(f"{run_id}/p{p}", artifacts[a % len(artifacts)])
    for a, p in generates:
        graph.was_generated_by(artifacts[a % len(artifacts)],
                               f"{run_id}/p{p}")
    for a, b in derives:
        if a != b:
            graph.was_derived_from(artifacts[a % len(artifacts)],
                                   artifacts[b % len(artifacts)])
    return graph


class BruteForceModel:
    """The reference: merged edge list + unbounded BFS."""

    def __init__(self) -> None:
        self.forward: dict[str, set[str]] = {}   # effect -> causes
        self.backward: dict[str, set[str]] = {}  # cause -> effects
        self.nodes_by_run: dict[str, set[str]] = {}
        self.replays: dict[str, str] = {}

    def add(self, run_id: str, graph: OPMGraph) -> None:
        self.nodes_by_run[run_id] = {n.id for n in graph.nodes()}
        for edge in graph.edges():
            self.forward.setdefault(edge.effect, set()).add(edge.cause)
            self.backward.setdefault(edge.cause, set()).add(edge.effect)
        for node in graph.nodes("process"):
            target = node.annotations.get("wasCachedFrom")
            if target:
                self.replays[node.id] = target

    def closure(self, start: str, *, forward: bool) -> list[str]:
        table = self.forward if forward else self.backward
        seen: set[str] = set()
        frontier = deque([start])
        while frontier:
            current = frontier.popleft()
            for neighbor in table.get(current, ()):
                if neighbor != start and neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return sorted(seen)

    def runs_for(self, node_id: str) -> list[str]:
        return sorted(run for run, nodes in self.nodes_by_run.items()
                      if node_id in nodes)

    def chain(self, process_id: str) -> list[str]:
        chain = [process_id]
        seen = {process_id}
        while chain[-1] in self.replays:
            target = self.replays[chain[-1]]
            if target in seen:
                break
            chain.append(target)
            seen.add(target)
        return chain


def _load(corpus):
    runs, seal_every = corpus
    store = ProvenanceStore(
        runs_per_segment=seal_every if seal_every else 10_000)
    model = BruteForceModel()
    for spec in runs:
        graph = _build_graph(spec)
        store.ingest_graph(spec[0], graph)
        model.add(spec[0], graph)
    return store, model


@settings(max_examples=60, deadline=None)
@given(corpora())
def test_lineage_matches_brute_force(corpus):
    store, model = _load(corpus)
    for run_id in store.run_ids():
        for node in sorted(model.nodes_by_run[run_id]):
            assert store.ancestors(node).node_ids \
                == model.closure(node, forward=True), node
            assert store.descendants(node).node_ids \
                == model.closure(node, forward=False), node


@settings(max_examples=40, deadline=None)
@given(corpora())
def test_artifact_run_index_matches_brute_force(corpus):
    store, model = _load(corpus)
    every_node = set().union(*model.nodes_by_run.values())
    for node in sorted(every_node):
        assert store.runs_for_artifact(node) == model.runs_for(node)


@settings(max_examples=40, deadline=None)
@given(corpora())
def test_cached_chains_match_brute_force(corpus):
    store, model = _load(corpus)
    for process in sorted(model.replays):
        resolved = store.cached_from_chain(process)
        expected = model.chain(process)
        assert resolved["chain"] == expected
        assert resolved["origin"] == expected[-1]


@settings(max_examples=30, deadline=None)
@given(corpora(), st.integers(min_value=1, max_value=4))
def test_budget_truncation_is_sound(corpus, max_nodes):
    """A budgeted answer is a subset of the full closure, never larger
    than the budget, and flags truncation iff it dropped something."""
    store, model = _load(corpus)
    budget = TraversalBudget(max_nodes=max_nodes)
    for run_id in store.run_ids():
        for node in sorted(model.nodes_by_run[run_id]):
            full = set(model.closure(node, forward=True))
            bounded = store.ancestors(node, budget=budget)
            assert len(bounded.node_ids) <= max_nodes
            assert set(bounded.node_ids) <= full
            if bounded.truncated:
                assert len(full) > len(bounded.node_ids)
            else:
                assert set(bounded.node_ids) == full


@settings(max_examples=25, deadline=None)
@given(corpora())
def test_reload_preserves_sealed_answers(corpus):
    """The store keeps nothing of its own: a repository attached to the
    recovered journal rebuilds its index from the run rows alone, and
    answers as the model does whatever was sealed before."""
    runs, seal_every = corpus
    model = BruteForceModel()
    started = dt.datetime(2013, 1, 1, tzinfo=dt.timezone.utc)
    with tempfile.TemporaryDirectory() as folder:
        journal = Path(folder) / "provenance.journal"
        repository = ProvenanceRepository(
            Database("prov_diff", journal_path=journal))
        for index, spec in enumerate(runs, start=1):
            graph = _build_graph(spec)
            trace = WorkflowTrace(spec[0], "w", started)
            trace.finish(started, "completed")
            repository.store_run(trace, graph)
            model.add(spec[0], graph)
            if seal_every and index % seal_every == 0:
                repository.store.seal()
        store = ProvenanceRepository(
            Database.recover("prov_diff", journal)).store
    every_node = set().union(*model.nodes_by_run.values())
    for node in sorted(every_node):
        assert store.ancestors(node).node_ids \
            == model.closure(node, forward=True), node
        assert store.runs_for_artifact(node) == model.runs_for(node)
    for process in sorted(model.replays):
        assert store.cached_from_chain(process)["chain"] \
            == model.chain(process)
