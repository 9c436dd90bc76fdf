"""Infrastructure benchmark: the archival provenance store.

The store exists because per-run object graphs do not survive archival
scale.  This benchmark pits it against the naive alternative — keep
every run's :class:`OPMGraph` in a dict and scan — at 10 000 synthetic
runs, and records the numbers in ``BENCH_provstore.json``:

a. **artifact lookup** — "which runs mention this artifact" via the
   store's interned backward index vs probing every graph.  Floor: 5x
   (advisory on shared runners; ``REPRO_BENCH_STRICT=1`` enforces).
b. **resident memory** — interned columnar segments (the sealed
   arrays and the active tail) vs 10 000 live object graphs.  Floor: 3x,
   a relation between two tracemalloc measurements on the same
   interpreter, so it is always enforced.
c. **bounded traversal** — a lineage query wired through a 10k-run
   corpus must respect an explicit node budget.  Always enforced.
"""

from __future__ import annotations

import gc
import time
import tracemalloc

import pytest

from harness import Bench
from repro.provenance.opm import OPMGraph
from repro.provenance.store import ProvenanceStore, TraversalBudget

pytestmark = pytest.mark.smoke

N_RUNS = 10_000
N_LOOKUPS = 200
MIN_LOOKUP_SPEEDUP = 5.0
MIN_MEMORY_RATIO = 3.0

bench = Bench("provstore", runs=N_RUNS)


def _run_id(index: int) -> str:
    return f"run-{index:05d}"


def _graph(index: int) -> OPMGraph:
    """One synthetic run: reader -> artifacts -> persister, a shared
    ``cas:`` vault object every 8th run, a cache replay every 5th."""
    run_id = _run_id(index)
    graph = OPMGraph(run_id)
    reader = f"{run_id}/reader"
    persister = f"{run_id}/persister"
    annotations = {}
    if index % 5 == 4:
        annotations["wasCachedFrom"] = f"{_run_id(index - 1)}/reader"
    graph.add_process(reader, annotations=annotations)
    graph.add_process(persister)
    graph.add_agent("agent/engine")
    graph.was_controlled_by(reader, "agent/engine")
    graph.was_controlled_by(persister, "agent/engine")
    graph.was_triggered_by(persister, reader)
    source = f"{run_id}/a1"
    graph.add_artifact(source)
    graph.used(reader, source)
    for j in range(2, 5):
        artifact = f"{run_id}/a{j}"
        graph.add_artifact(artifact)
        graph.was_generated_by(artifact, reader)
        graph.was_derived_from(artifact, source)
        graph.used(persister, artifact)
    if index % 8 == 0:
        shared = f"cas:{index // 8 % 50:04d}"
        graph.add_artifact(shared)
        graph.was_generated_by(shared, persister)
    return graph


def _lookup_targets() -> list[str]:
    targets = [f"{_run_id(i * (N_RUNS // N_LOOKUPS))}/a2"
               for i in range(N_LOOKUPS // 2)]
    targets += [f"cas:{i % 50:04d}" for i in range(N_LOOKUPS // 2)]
    return targets


def test_store_vs_naive_repository_at_10k_runs():
    gc.collect()
    tracemalloc.start()

    # -- naive: every run's object graph, resident -----------------
    base = tracemalloc.get_traced_memory()[0]
    naive = {_run_id(i): _graph(i) for i in range(N_RUNS)}
    gc.collect()
    naive_bytes = tracemalloc.get_traced_memory()[0] - base

    targets = _lookup_targets()
    start = time.perf_counter()
    naive_answers = {
        target: [run for run, graph in naive.items()
                 if graph.has_node(target)]
        for target in targets
    }
    naive_lookup_seconds = (time.perf_counter() - start) / len(targets)

    del naive
    gc.collect()

    # -- the store: interned columnar segments ---------------------
    base = tracemalloc.get_traced_memory()[0]
    store = ProvenanceStore(runs_per_segment=512)
    for i in range(N_RUNS):
        store.ingest_graph(_run_id(i), _graph(i))  # graph discarded
    gc.collect()
    store_bytes = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()

    start = time.perf_counter()
    store_answers = {target: store.runs_for_artifact(target)
                     for target in targets}
    store_lookup_seconds = (time.perf_counter() - start) / len(targets)

    assert store_answers == naive_answers  # same question, same truth

    speedup = round(naive_lookup_seconds
                    / max(store_lookup_seconds, 1e-9), 1)
    memory_ratio = round(naive_bytes / max(store_bytes, 1), 1)
    bench.record(
        "store_vs_naive",
        runs=N_RUNS,
        lookups=len(targets),
        naive_lookup_seconds=round(naive_lookup_seconds, 6),
        store_lookup_seconds=round(store_lookup_seconds, 9),
        lookup_speedup=speedup,
        naive_bytes=naive_bytes,
        store_bytes=store_bytes,
        memory_ratio=memory_ratio,
        sealed_segment_bytes=store.memory_bytes(),
        manifest=store.manifest_counts(),
    )
    print(f"\nprovstore at {N_RUNS} runs: lookup "
          f"{naive_lookup_seconds * 1e3:.2f} ms -> "
          f"{store_lookup_seconds * 1e6:.1f} µs ({speedup}x), memory "
          f"{naive_bytes / 1e6:.1f} MB -> {store_bytes / 1e6:.1f} MB "
          f"({memory_ratio}x)")

    # memory is a same-interpreter relation: always enforced
    bench.floor("store_vs_naive", "memory_ratio", MIN_MEMORY_RATIO)
    bench.floor("store_vs_naive", "lookup_speedup", MIN_LOOKUP_SPEEDUP,
                strict=True)


def test_lineage_respects_node_budget_at_scale():
    """Cross-run lineage through the 10k-run corpus stays inside an
    explicit node budget, and an unbudgeted query resolves replay
    chains across runs."""
    store = ProvenanceStore(runs_per_segment=512)
    for i in range(N_RUNS):
        store.ingest_graph(_run_id(i), _graph(i))

    # cas: objects are regenerated by many runs -> wide closures
    budget = TraversalBudget(max_nodes=64)
    start = time.perf_counter()
    bounded = store.ancestors("cas:0001", budget=budget)
    bounded_seconds = time.perf_counter() - start
    assert len(bounded.node_ids) <= 64

    full = store.ancestors("cas:0001")
    chain = store.cached_from_chain(f"{_run_id(N_RUNS - 1)}/reader")
    bench.record(
        "bounded_traversal",
        budget_nodes=64,
        bounded_result_nodes=len(bounded.node_ids),
        bounded_truncated=bounded.truncated,
        bounded_seconds=round(bounded_seconds, 6),
        unbounded_result_nodes=len(full.node_ids),
        replay_chain_length=len(chain["chain"]),
        replay_origin=chain["origin"],
    )
    print(f"\nbounded traversal: {len(bounded.node_ids)} nodes "
          f"(truncated={bounded.truncated}) vs {len(full.node_ids)} "
          f"unbounded; replay chain depth {len(chain['chain'])}")
    if full.truncated is False and len(full.node_ids) > 64:
        assert bounded.truncated
