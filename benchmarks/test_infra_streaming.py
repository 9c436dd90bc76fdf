"""Infrastructure benchmark: incremental streaming curation.

A ~6k-record collection is curated cold, then hit with ~1% churn — a
burst of streamed arrivals landing in the tail shard plus a cluster of
in-place re-determinations — and re-assessed twice: incrementally (the
warm curator recomputes only the dirty shards) and cold (a brand-new
curator re-runs everything).  Results land in ``BENCH_streaming.json``
at the repository root: wall-clock per phase, shard economics, and the
incremental/cold speedup CI gates on.

Equivalence is asserted unconditionally: the incremental digest must be
byte-identical to the cold ground truth — reuse must never buy a
different answer.

A micro-benchmark rides along for the bulk observation path:
:meth:`ObservationStore.add_all` (one context pre-pass, one
``bulk_load`` per table) must beat the equivalent per-record ``add``
loop on the same batch.  Both sides are timed best-of-3, each repeat
on a fresh store and batch, so a one-off warm-up cost on either side
cannot decide the comparison.
"""

from __future__ import annotations

import time

import pytest

from harness import Bench, timed
from repro.observations.model import Entity, Measurement, Observation
from repro.observations.store import ObservationStore
from repro.storage import Column, Database, TableSchema, col
from repro.storage import column_types as ct
from repro.streaming import IncrementalCurator, ObservationStream

pytestmark = pytest.mark.smoke

N_RECORDS = 6000
SHARD_SIZE = 64
N_ARRIVALS = 32          # streamed appends, land in the tail shards
N_EDITS = 28             # clustered in-place re-determinations
EDIT_BASE = 3000         # edits cluster here: few owning shards
N_OBSERVATIONS = 1500    # micro-benchmark batch size
#: wall-clock on shared CI runners is nondeterministic, so this floor
#: is strict-only: it fails the run only under REPRO_BENCH_STRICT=1 and
#: CI annotates a warning when it dips
MIN_INCREMENTAL_SPEEDUP = 10.0

bench = Bench("streaming", records=N_RECORDS, shard_size=SHARD_SIZE,
              streamed_arrivals=N_ARRIVALS, clustered_edits=N_EDITS,
              observations=N_OBSERVATIONS)


def _bench_database(n_records: int) -> Database:
    database = Database()
    database.create_table(TableSchema("recordings", [
        Column("record_id", ct.INTEGER),
        Column("species", ct.TEXT),
        Column("genus", ct.TEXT),
        Column("country", ct.TEXT),
        Column("state", ct.TEXT),
        Column("collect_date", ct.TEXT),
    ], primary_key="record_id"))
    rows = []
    for i in range(1, n_records + 1):
        name = (f"Oldus species{i % 11}" if i % 40 == 0
                else f"Goodus species{i % 97}")
        rows.append({
            "record_id": i,
            "species": name,
            "genus": name.split()[0],
            "country": "Brasil",
            "state": None if i % 50 == 0 else "SP",
            "collect_date": "1999-01-01",
        })
    database.bulk_load("recordings", rows)
    return database


def _resolver(name: str) -> dict:
    if name.startswith("Oldus"):
        return {"status": "outdated",
                "accepted_name": name.replace("Oldus", "Novus"),
                "suggestion": None}
    return {"status": "accepted", "accepted_name": name,
            "suggestion": None}


def _curator(database: Database) -> IncrementalCurator:
    return IncrementalCurator(database, _resolver,
                              shard_size=SHARD_SIZE,
                              resource_versions={"catalogue": 1})


def _churn(database: Database, curator: IncrementalCurator) -> int:
    """~1% churn: streamed tail arrivals + one cluster of edits."""

    class TableSink:
        def add_all(self, batch):
            rows = list(batch)
            database.bulk_load("recordings", rows)
            curator.mark_batch_dirty(rows)
            return len(rows)

    stream = ObservationStream(TableSink(), capacity=64, batch_size=16,
                               source="bench")
    stream.ingest({
        "record_id": N_RECORDS + i,
        "species": f"Oldus arrivus{i}",
        "genus": "Oldus",
        "country": "Brasil",
        "state": "SP",
        "collect_date": "2024-01-01",
    } for i in range(1, N_ARRIVALS + 1))

    edited = list(range(EDIT_BASE, EDIT_BASE + N_EDITS))
    for record_id in edited:
        database.update_where(
            "recordings", col("record_id") == record_id,
            {"species": f"Oldus redetus{record_id}", "genus": "Oldus"})
    curator.mark_dirty(edited)
    return N_ARRIVALS + N_EDITS


@pytest.mark.benchmark(group="infra-streaming")
def test_incremental_sweep_beats_cold_full():
    database = _bench_database(N_RECORDS)
    curator = _curator(database)

    start = time.perf_counter()
    baseline = curator.assess()
    baseline_wall = time.perf_counter() - start
    assert baseline.quality["records"] == N_RECORDS

    dirty_records = _churn(database, curator)

    start = time.perf_counter()
    warm = curator.assess()
    warm_wall = time.perf_counter() - start

    start = time.perf_counter()
    cold = _curator(database).assess()
    cold_wall = time.perf_counter() - start

    # equivalence first: the incremental sweep must be byte-identical
    # to the cold ground truth
    assert warm.digest == cold.digest
    assert warm.quality == cold.quality
    assert warm.review == cold.review
    assert warm.shard_digests == cold.shard_digests
    assert warm.quality["records"] == N_RECORDS + N_ARRIVALS
    # and genuinely incremental: dirty shards only
    assert warm.shards_recomputed < cold.shards_recomputed
    assert warm.shards_recomputed + warm.shards_reused \
        == cold.shards_recomputed

    speedup = round(cold_wall / warm_wall, 2)

    # -- micro-benchmark: bulk observation ingest ---------------------
    def _batch():
        return [
            Observation(f"obs-{i}", Entity("taxon", f"Taxon t{i % 31}"),
                        measurements=[Measurement("air_temperature",
                                                  15.0 + i % 20, "degC")],
                        source="bench")
            for i in range(N_OBSERVATIONS)
        ]

    def add_loop(store, batch):
        for observation in batch:
            store.add(observation)

    def fresh():
        return ObservationStore(), _batch()

    loop_store, bulk_store = ObservationStore(), ObservationStore()
    add_loop(loop_store, _batch())
    bulk_store.add_all(_batch())
    assert len(bulk_store) == len(loop_store) == N_OBSERVATIONS
    loop_wall = timed(add_loop, setup=fresh)
    bulk_wall = timed(lambda store, batch: store.add_all(batch),
                      setup=fresh)

    bench.record("churn", dirty_records=dirty_records,
                 dirty_fraction=round(dirty_records / N_RECORDS, 4),
                 dirty_shards=warm.shards_recomputed)
    bench.record("cold_sweep", wall_seconds=round(baseline_wall, 4),
                 shards_recomputed=baseline.shards_recomputed)
    bench.record("incremental_sweep", wall_seconds=round(warm_wall, 4),
                 shards_recomputed=warm.shards_recomputed,
                 shards_reused=warm.shards_reused,
                 incremental_speedup=speedup)
    bench.record("cold_resweep", wall_seconds=round(cold_wall, 4),
                 shards_recomputed=cold.shards_recomputed)
    bench.record("bulk_observation_ingest",
                 add_loop_seconds=round(loop_wall, 4),
                 add_all_seconds=round(bulk_wall, 4),
                 bulk_speedup=round(loop_wall / bulk_wall, 2))
    print(f"\nstreaming bench: cold {cold_wall:.3f}s "
          f"({cold.shards_recomputed} shards) vs incremental "
          f"{warm_wall:.3f}s ({warm.shards_recomputed} shards) "
          f"= {speedup}x at {dirty_records / N_RECORDS:.1%} churn; "
          f"bulk ingest {round(loop_wall / bulk_wall, 2)}x")
    assert bulk_wall < loop_wall, (
        f"bulk add_all ({bulk_wall:.4f}s) must beat the per-record "
        f"add loop ({loop_wall:.4f}s)")
    bench.floor("incremental_sweep", "incremental_speedup",
                MIN_INCREMENTAL_SPEEDUP, strict=True)
