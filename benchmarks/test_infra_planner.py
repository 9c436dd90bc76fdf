"""Infrastructure benchmark: the cost-based query planner.

Three before/after comparisons against the *seed* engine's behavior,
plus one index-vs-scan check on the storage substrate, each asserting
its speedup floor and recording its numbers in ``BENCH_planner.json``
at the repository root:

a. **Selective equality + wide range** — the seed planner blindly
   intersected every applicable index, so a selective species probe paid
   for materializing a near-table-sized ``year`` range set on every
   query.  The cost-based planner skips the unprofitable probe.
b. **order_by + limit top-k** — the seed executor materialized and
   sorted every matching row before slicing; the planner now streams the
   sorted index (or heap-selects) and stops at ``offset + limit``.
c. **Bulk ingest** — ``bulk_load`` batches the unique-check, defers
   index maintenance and writes one journal entry, against the seed's
   row-at-a-time ``insert`` loop.
d. **Indexed point lookup** — the repositories query by species name
   constantly, so an equality probe on the species hash index must beat
   the same query over an unindexed copy of the table by 5x.

The legacy comparators reproduce the seed algorithms on top of today's
primitives (``Table.candidate_rowids`` is the seed's always-intersect
candidate builder, kept intact), so both sides run the same storage
code underneath and the delta is attributable to the planner/bulk path.
"""

from __future__ import annotations

import pytest

from harness import Bench, timed
from repro.storage import Column, Database, TableSchema, col
from repro.storage import column_types as ct

pytestmark = pytest.mark.smoke

N_ROWS = 12_000
MIN_SPEEDUP = 2.0
MIN_INDEX_SPEEDUP = 5.0

bench = Bench("planner", rows=N_ROWS)


def _record(name: str, legacy_s: float, planner_s: float,
            **extra: float) -> None:
    speedup = round(legacy_s / max(planner_s, 1e-9), 2)
    bench.record(name, legacy_seconds=round(legacy_s, 6),
                 planner_seconds=round(planner_s, 6), speedup=speedup,
                 **extra)
    print(f"\n{name}: legacy {legacy_s * 1000:.1f} ms vs "
          f"planner {planner_s * 1000:.1f} ms ({speedup:.1f}x)")
    bench.floor(name, "speedup", MIN_SPEEDUP)


def _schema(name: str = "r") -> TableSchema:
    return TableSchema(name, [
        Column("id", ct.INTEGER),
        Column("species", ct.TEXT),
        Column("year", ct.INTEGER),
        Column("score", ct.REAL),
    ], primary_key="id")


def _rows(count: int) -> list[dict]:
    return [{"id": i, "species": f"sp{i % 500}", "year": 1960 + i % 54,
             "score": float(i % 1000)} for i in range(count)]


@pytest.fixture(scope="module")
def bench_db():
    """Table ``r`` with a species hash index and a year sorted index,
    and ``r_unindexed``, the same rows with no secondary index."""
    database = Database("planner_bench")
    for name in ("r", "r_unindexed"):
        database.create_table(_schema(name))
        database.bulk_load(name, _rows(N_ROWS))
    database.create_index("r", "species", "hash")
    database.create_index("r", "year", "sorted")
    return database


def _legacy_filtered_rows(table, predicate):
    """The seed access path: always-intersect candidates, then filter."""
    candidates = table.candidate_rowids(predicate.equality_conditions(),
                                        predicate.range_conditions())
    return [row for row in table.scan(candidates) if predicate(row)]


@pytest.mark.benchmark(group="infra-planner")
def test_selective_equality_beats_always_intersect(bench_db):
    table = bench_db.table("r")
    # species matches 24 rows; the year range matches ~11 800 — the seed
    # planner intersected both, building the giant range set every time
    predicate = (col("species") == "sp7") & col("year").between(1960, 2012)

    def legacy():
        for i in range(40):
            p = (col("species") == f"sp{i * 7 % 500}") \
                & col("year").between(1960, 2012)
            _legacy_filtered_rows(table, p)

    def planner():
        for i in range(40):
            p = (col("species") == f"sp{i * 7 % 500}") \
                & col("year").between(1960, 2012)
            bench_db.query("r").where(p).all()

    plan = bench_db.query("r").where(predicate).explain()
    assert plan["access_path"] == "index_lookup"
    assert plan["index_columns"] == ["species"]
    fast = bench_db.query("r").where(predicate).all()
    assert fast == _legacy_filtered_rows(table, predicate)

    _record("a_selective_indexed_equality", timed(legacy), timed(planner))


@pytest.mark.benchmark(group="infra-planner")
def test_ordered_topk_beats_full_sort(bench_db):
    def legacy():
        for __ in range(20):
            rows = list(bench_db.table("r").rows())
            rows.sort(key=lambda row: (row["year"] is None, row["year"]))
            rows[:10]

    def planner():
        for __ in range(20):
            bench_db.query("r").order_by("year").limit(10).all()

    query = bench_db.query("r").order_by("year").limit(10)
    plan = query.explain()
    assert plan["access_path"] == "ordered_index"
    assert plan["strategy"] == "stream_ordered"
    rows = list(bench_db.table("r").rows())
    rows.sort(key=lambda row: (row["year"] is None, row["year"]))
    assert query.all() == rows[:10]

    _record("b_order_by_limit_topk", timed(legacy), timed(planner))


@pytest.mark.benchmark(group="infra-planner")
def test_bulk_ingest_beats_row_at_a_time(tmp_path):
    rows = _rows(10_000)

    def fresh(journal_name):
        database = Database("ingest",
                            journal_path=tmp_path / journal_name)
        database.create_table(_schema())
        database.create_index("r", "species", "hash")
        database.create_index("r", "year", "sorted")
        return database

    counter = iter(range(1000))

    def legacy():
        database = fresh(f"legacy{next(counter)}.journal")
        for row in rows:
            database.insert("r", row)
        assert database.count("r") == len(rows)

    def planner():
        database = fresh(f"bulk{next(counter)}.journal")
        database.bulk_load("r", rows)
        assert database.count("r") == len(rows)

    _record("c_bulk_ingest_10k_rows",
            timed(legacy, repeats=2), timed(planner, repeats=2),
            rows_ingested=len(rows))


@pytest.mark.benchmark(group="infra-planner")
def test_indexed_point_lookup_beats_full_scan(bench_db):
    def lookups(table):
        return sum(
            bench_db.query(table).where(
                col("species") == f"sp{i * 7 % 500}").count()
            for i in range(50))

    assert lookups("r") == lookups("r_unindexed") == 50 * 24
    assert not bench_db.query("r").where(
        col("species") == "sp1").explain()["full_scan"]

    scan_s = timed(lambda: lookups("r_unindexed"))
    index_s = timed(lambda: lookups("r"))
    speedup = round(scan_s / max(index_s, 1e-9), 2)
    bench.record("d_indexed_point_lookup", scan_seconds=round(scan_s, 6),
                 index_seconds=round(index_s, 6), speedup=speedup)
    print(f"\nindexed {index_s * 1000:.1f} ms vs "
          f"scan {scan_s * 1000:.1f} ms ({speedup:.0f}x)")
    bench.floor("d_indexed_point_lookup", "speedup", MIN_INDEX_SPEEDUP)
