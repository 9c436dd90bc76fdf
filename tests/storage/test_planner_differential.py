"""Differential fuzzing of the query planner.

Every index configuration must be *invisible* in query results: whatever
access path the cost-based planner picks — full scan, single index,
intersection, ordered-index stream or heap top-k — the rows must match a
brute-force oracle that filters, stable-sorts and slices the whole table
with no storage-engine involvement at all.

~200 seeded random queries (plus a joined batch) run against four index
configurations; any mismatch fails with the query's seed so it can be
replayed deterministically.
"""

from __future__ import annotations

import random
import zlib
from typing import Any

import pytest

from repro.storage import Column, Database, TableSchema, col
from repro.storage import column_types as ct

SPECIES = [f"Species_{i:02d}" for i in range(24)]
GENERA = [f"Genus_{i}" for i in range(8)]
REGIONS = ["north", "south", "east", "west", "center"]

N_ROWS = 400
N_QUERIES = 50  # per index configuration

INDEX_CONFIGS = {
    "none": [],
    "hash_only": [("species", "hash"), ("genus", "hash")],
    "sorted_only": [("year", "sorted"), ("score", "sorted")],
    "all": [("species", "hash"), ("genus", "hash"), ("site", "hash"),
            ("year", "sorted"), ("score", "sorted")],
}


def _generate_rows() -> list[dict[str, Any]]:
    rng = random.Random(4242)
    rows = []
    for i in range(N_ROWS):
        rows.append({
            "id": i,
            "species": None if rng.random() < 0.08 else rng.choice(SPECIES),
            "genus": rng.choice(GENERA),
            "year": None if rng.random() < 0.10 else rng.randint(1960, 2010),
            # one decimal place → plenty of duplicate scores → tie-order
            # differences between paths would surface immediately
            "score": None if rng.random() < 0.15
            else round(rng.uniform(0, 40), 1),
            "site": rng.randint(1, 20),
        })
    return rows


ROWS = _generate_rows()


def _build_database(config_name: str) -> Database:
    database = Database(f"fuzz_{config_name}")
    database.create_table(TableSchema("t", [
        Column("id", ct.INTEGER),
        Column("species", ct.TEXT),
        Column("genus", ct.TEXT),
        Column("year", ct.INTEGER),
        Column("score", ct.REAL),
        Column("site", ct.INTEGER),
    ], primary_key="id"))
    database.create_table(TableSchema("sites", [
        Column("site_id", ct.INTEGER),
        Column("region", ct.TEXT),
    ], primary_key="site_id"))
    database.bulk_load("t", ROWS)
    database.bulk_load("sites", [
        {"site_id": i, "region": REGIONS[i % len(REGIONS)]}
        for i in range(1, 21)
    ])
    for column, kind in INDEX_CONFIGS[config_name]:
        database.create_index("t", column, kind)
    return database


@pytest.fixture(scope="module", params=sorted(INDEX_CONFIGS))
def fuzz_db(request):
    return request.param, _build_database(request.param)


# ----------------------------------------------------------------------
# random query construction
# ----------------------------------------------------------------------

def _random_condition(rng: random.Random):
    choice = rng.randrange(9)
    if choice == 0:
        value = rng.choice(SPECIES + ["Species_absent"])
        return col("species") == value
    if choice == 1:
        return col("genus") == rng.choice(GENERA)
    if choice == 2:
        year = rng.randint(1958, 2012)
        return rng.choice([col("year") == year, col("year") > year,
                           col("year") <= year])
    if choice == 3:
        low = rng.randint(1955, 2005)
        return col("year").between(low, low + rng.randint(0, 20))
    if choice == 4:
        low = round(rng.uniform(0, 35), 1)
        return col("score").between(low, round(low + rng.uniform(0, 15), 1))
    if choice == 5:
        values = rng.sample(SPECIES, rng.randint(1, 4))
        return col("species").in_(values)
    if choice == 6:
        return col("site").in_(rng.sample(range(1, 25), rng.randint(1, 5)))
    if choice == 7:
        column = rng.choice(["species", "year", "score"])
        predicate = col(column).is_null()
        return ~predicate if rng.random() < 0.5 else predicate
    return col("species").like(f"Species_{rng.randrange(3)}%")


def _random_predicate(rng: random.Random):
    n_parts = rng.randint(1, 3)
    predicate = _random_condition(rng)
    for __ in range(n_parts - 1):
        part = _random_condition(rng)
        if rng.random() < 0.2:
            predicate = predicate | part
        else:
            predicate = predicate & part
    return predicate


ORDER_CHOICES = [
    [],
    [("species", False)],
    [("year", False)],
    [("year", True)],
    [("score", False)],
    [("score", True)],
    [("year", False), ("species", False)],
]


def _random_shape(rng: random.Random):
    order = rng.choice(ORDER_CHOICES)
    limit = rng.choice([None, None, 0, 1, 3, 17, 100])
    offset = rng.choice([0, 0, 0, 2, 7])
    projection = rng.choice([None, None, ("species", "year"),
                             ("genus", "score", "site")])
    distinct = rng.random() < 0.25
    return order, limit, offset, projection, distinct


# ----------------------------------------------------------------------
# the oracle: filter → stable sort → offset → limit → project → distinct
# ----------------------------------------------------------------------

def _oracle(rows, predicate, order, limit, offset, projection, distinct):
    matched = [dict(row) for row in rows if predicate(row)]
    for column, descending in reversed(order):
        matched.sort(key=lambda row: (row.get(column) is None,
                                      row.get(column)),
                     reverse=descending)
    if offset:
        matched = matched[offset:]
    if limit is not None:
        matched = matched[:limit]
    if projection is not None:
        matched = [{column: row.get(column) for column in projection}
                   for row in matched]
    if distinct:
        seen, unique = set(), []
        for row in matched:
            key = tuple(sorted(row.items()))
            if key not in seen:
                seen.add(key)
                unique.append(row)
        matched = unique
    return matched


def _apply_shape(query, order, limit, offset, projection, distinct):
    for column, descending in order:
        query = query.order_by(column, descending=descending)
    if limit is not None:
        query = query.limit(limit)
    if offset:
        query = query.offset(offset)
    if projection is not None:
        query = query.select(*projection)
    if distinct:
        query = query.distinct()
    return query


def test_random_queries_match_oracle(fuzz_db):
    config_name, database = fuzz_db
    table_rows = list(database.table("t").rows())
    rng = random.Random(zlib.crc32(config_name.encode()))
    for case in range(N_QUERIES):
        seed = rng.randrange(2 ** 32)
        case_rng = random.Random(seed)
        predicate = _random_predicate(case_rng)
        order, limit, offset, projection, distinct = _random_shape(case_rng)
        query = _apply_shape(
            database.query("t").where(predicate),
            order, limit, offset, projection, distinct)
        expected = _oracle(table_rows, predicate, order, limit, offset,
                           projection, distinct)
        plan = query.explain()
        actual = query.all()
        assert actual == expected, (
            f"[{config_name}] case {case} (seed {seed}) diverged from the "
            f"oracle\npredicate: {predicate!r}\norder={order} limit={limit} "
            f"offset={offset} projection={projection} distinct={distinct}\n"
            f"plan: {plan['access_path']}/{plan['strategy']} "
            f"via {plan['index_columns']}"
        )
        # count() ignores limit/offset/projection/distinct by contract
        expected_count = sum(1 for row in table_rows if predicate(row))
        assert database.query("t").where(predicate).count() == \
            expected_count, f"[{config_name}] case {case} (seed {seed})"


def _join_oracle(rows, sites, predicate, order, limit, offset):
    partners: dict[Any, list[dict[str, Any]]] = {}
    for site in sites:
        partners.setdefault(site["site_id"], []).append(site)
    joined = []
    for row in rows:
        for partner in partners.get(row.get("site"), ()):
            merged = dict(row)
            for column, value in partner.items():
                merged[f"sites.{column}"] = value
            joined.append(merged)
    return _oracle(joined, predicate, order, limit, offset, None, False)


def test_joined_queries_match_oracle(fuzz_db):
    config_name, database = fuzz_db
    table_rows = list(database.table("t").rows())
    site_rows = list(database.table("sites").rows())
    rng = random.Random(zlib.crc32(config_name.encode()) ^ 0xBEEF)
    for case in range(12):
        seed = rng.randrange(2 ** 32)
        case_rng = random.Random(seed)
        predicate = _random_condition(case_rng)
        if case_rng.random() < 0.5:
            predicate = predicate & (
                col("sites.region") == case_rng.choice(REGIONS))
        order = case_rng.choice([[], [("year", False)],
                                 [("sites.region", False), ("id", False)]])
        limit = case_rng.choice([None, 5, 40])
        offset = case_rng.choice([0, 3])
        query = _apply_shape(
            database.query("t").join("sites", "site", "site_id")
            .where(predicate),
            order, limit, offset, None, False)
        expected = _join_oracle(table_rows, site_rows, predicate, order,
                                limit, offset)
        actual = query.all()
        assert actual == expected, (
            f"[{config_name}] join case {case} (seed {seed}) diverged\n"
            f"predicate: {predicate!r}\norder={order} limit={limit} "
            f"offset={offset}"
        )


def test_fuzz_exercises_every_access_path():
    """The fuzz pool is only convincing if it actually reaches all four
    access paths and all three strategies on the fully indexed config."""
    database = _build_database("all")
    rng = random.Random(zlib.crc32(b"all"))
    paths, strategies = set(), set()
    for __ in range(N_QUERIES):
        seed = rng.randrange(2 ** 32)
        case_rng = random.Random(seed)
        predicate = _random_predicate(case_rng)
        order, limit, offset, projection, distinct = _random_shape(case_rng)
        plan = _apply_shape(
            database.query("t").where(predicate),
            order, limit, offset, projection, distinct).explain()
        paths.add(plan["access_path"])
        strategies.add(plan["strategy"])
    assert {"full_scan", "index_lookup", "ordered_index"} <= paths
    assert {"materialize", "stream_ordered", "topk_heap"} <= strategies


# ----------------------------------------------------------------------
# predicate writes: update_where / delete_where take the planner's
# candidates, so every index configuration must write the same rows
# ----------------------------------------------------------------------

N_WRITES = 25  # per index configuration and transaction mode

CHANGE_CHOICES = [
    {"genus": "Genus_new"},
    {"year": 2011},
    {"score": None, "site": 3},
    {"species": "Species_00"},
]


def _rows(database):
    return list(database.table("t").rows())


@pytest.mark.parametrize("in_transaction", [False, True],
                         ids=["autocommit", "rolled_back"])
@pytest.mark.parametrize("config_name", sorted(INDEX_CONFIGS))
def test_predicate_writes_match_oracle(config_name, in_transaction):
    rng = random.Random(zlib.crc32(config_name.encode()) ^ 0x5EED)
    for case in range(N_WRITES):
        seed = rng.randrange(2 ** 32)
        case_rng = random.Random(seed)
        predicate = _random_predicate(case_rng)
        changes = case_rng.choice(CHANGE_CHOICES)
        label = f"[{config_name}] case {case} (seed {seed}): {predicate!r}"
        database = _build_database(config_name)
        before = _rows(database)
        matched = [row for row in before if predicate(row)]
        transaction = database.transaction() if in_transaction else None

        updated = database.update_where("t", predicate, changes)
        expected = [{**row, **changes} if predicate(row) else row
                    for row in before]
        assert updated == len(matched), label
        assert _rows(database) == expected, label
        # the indexes followed the writes: an indexed read agrees with
        # a brute-force filter of the new rows
        assert database.query("t").where(predicate).count() == sum(
            1 for row in expected if predicate(row)), label

        deleted = database.delete_where("t", predicate)
        survivors = [row for row in expected if not predicate(row)]
        assert deleted == len(expected) - len(survivors), label
        assert _rows(database) == survivors, label

        if transaction is not None:
            transaction.rollback()
            assert _rows(database) == before, label
            assert database.query("t").where(predicate).count() == \
                len(matched), label


def test_indexed_update_where_scans_only_candidates(isolated_telemetry):
    database = Database("scan")
    database.create_table(TableSchema("t", [
        Column("id", ct.INTEGER),
        Column("species", ct.TEXT),
        Column("site", ct.INTEGER),
    ], primary_key="id"))
    database.bulk_load("t", [
        {"id": i, "species": SPECIES[i % len(SPECIES)], "site": 1}
        for i in range(2000)
    ])
    database.create_index("t", "species", "hash")
    metrics = isolated_telemetry.metrics

    def scanned(statement):
        before = metrics.total("storage_rows_scanned_total")
        result = statement()
        return result, metrics.total("storage_rows_scanned_total") - before

    count, rows = scanned(lambda: database.update_where(
        "t", col("species") == "Species_03", {"site": 2}))
    assert count == 2000 // len(SPECIES) + 1 and rows == count
    count, rows = scanned(lambda: database.update_where(
        "t", col("id") == 1234, {"site": 3}))
    assert count == 1 and rows == 1
    count, rows = scanned(lambda: database.delete_where(
        "t", (col("species") == "Species_03") & (col("site") == 2)))
    assert count == 2000 // len(SPECIES) + 1 and rows == count
    # no index serves the predicate: a full scan, as before
    count, rows = scanned(lambda: database.update_where(
        "t", col("site") == 3, {"site": 4}))
    assert count == 1 and rows == len(database.table("t"))


@pytest.mark.parametrize("config_name", sorted(INDEX_CONFIGS))
def test_values_an_index_cannot_hash_or_order_match_like_a_scan(
        config_name):
    """A comparison the predicate evaluates as false (an unorderable
    bound, an unhashable literal) must not raise through an index."""
    database = _build_database(config_name)
    rows = _rows(database)
    for predicate in (col("year") > "1990", col("score").between("a", "z"),
                      col("species") == ["Species_01"],
                      (col("year") <= "x") | (col("genus") == "Genus_1")):
        expected = sum(1 for row in rows if predicate(row))
        assert database.query("t").where(predicate).count() == expected
        assert database.update_where("t", predicate, {"site": 0}) == \
            expected
    assert database.find("t", "12") is None
