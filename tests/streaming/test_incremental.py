"""IncrementalCurator: shard reuse, dirty-set recomputation, resource
bumps, review-queue sync, and provenance stitching."""

import pytest

from repro.storage import Column, Database, TableSchema, col
from repro.storage import column_types as ct
from repro.streaming import IncrementalCurator
from repro.streaming.incremental import REVIEW_TABLE

FIELDS = ["species", "genus", "country", "state", "collect_date"]


def make_database(n_records, outdated_every=10, empty_every=0):
    """A synthetic recordings table: every ``outdated_every``-th record
    carries a name the fake resolver reports as outdated."""
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
        outdated = outdated_every and i % outdated_every == 0
        name = f"Oldus species{i % 7}" if outdated \
            else f"Goodus species{i % 23}"
        rows.append({
            "record_id": i,
            "species": name,
            "genus": name.split()[0],
            "country": "Brasil",
            "state": None if empty_every and i % empty_every == 0
            else "SP",
            "collect_date": "1999-01-01",
        })
    database.bulk_load("recordings", rows)
    return database


def fake_resolver(name):
    if name.startswith("Oldus"):
        return {"status": "outdated",
                "accepted_name": name.replace("Oldus", "Novus"),
                "suggestion": None}
    if name.startswith("Bogus"):
        return {"status": "not_found", "accepted_name": None,
                "suggestion": None}
    return {"status": "accepted", "accepted_name": name,
            "suggestion": None}


def make_curator(database, **kwargs):
    kwargs.setdefault("shard_size", 16)
    kwargs.setdefault("resource_versions", {"catalogue": 1})
    return IncrementalCurator(database, fake_resolver, **kwargs)


class TestColdSweep:
    def test_assesses_everything(self):
        curator = make_curator(make_database(100))
        result = curator.assess()
        assert result.quality["records"] == 100
        assert result.quality["shards"] == 7
        assert result.quality["outdated_records"] == 10
        assert result.shards_recomputed == 7
        assert result.shards_reused == 0

    def test_review_queue_rows_carry_replacements(self):
        curator = make_curator(make_database(40))
        curator.assess()
        rows = curator.database.query(REVIEW_TABLE).order_by(
            "record_id").all()
        assert [row["record_id"] for row in rows] == [10, 20, 30, 40]
        assert all(row["reason"] == "outdated_name" for row in rows)
        assert rows[0]["new_name"].startswith("Novus")
        assert rows[0]["status"] == "flagged"

    def test_completeness_reflects_missing_fields(self):
        curator = make_curator(make_database(20, outdated_every=0,
                                             empty_every=2))
        result = curator.assess()
        assert result.quality["completeness"] == pytest.approx(
            (10 * 1.0 + 10 * 0.8) / 20)

    def test_empty_table(self):
        curator = make_curator(make_database(0))
        result = curator.assess()
        assert result.quality["records"] == 0
        assert result.quality["accuracy"] == 1.0
        assert result.shard_digests == {}


class TestIncrementalSweep:
    def test_clean_reassess_reuses_every_shard(self):
        curator = make_curator(make_database(100))
        first = curator.assess()
        second = curator.assess()
        assert second.shards_recomputed == 0
        assert second.shards_reused == first.quality["shards"]
        assert second.digest == first.digest
        assert second.run_ids == []

    def test_mark_dirty_recomputes_only_owning_shards(self):
        database = make_database(100)
        curator = make_curator(database)
        curator.assess()
        database.update_where("recordings", col("record_id") == 3,
                              {"species": "Bogus inventus"})
        dirty = curator.mark_dirty([3])
        assert dirty == ["shard:00000"]
        result = curator.assess()
        assert result.shards_recomputed == 1
        assert result.shards_reused == 6
        assert result.quality["unresolved_records"] == 1
        review = {row["record_id"]: row["reason"]
                  for row in result.review}
        assert review[3] == "unresolved_name"

    def test_mark_dirty_invalidate_cache_by_record_tag(self):
        curator = make_curator(make_database(32))
        curator.assess()
        before = curator.cache.stats()["entries"]
        curator.mark_dirty([1])
        # both stages of the owning shard were tagged with record:1
        assert curator.cache.stats()["entries"] == before - 2

    def test_new_streamed_records_map_to_tail_shard(self):
        database = make_database(32)
        curator = make_curator(database)
        curator.assess()
        database.bulk_load("recordings", [{
            "record_id": 33, "species": "Oldus recentus",
            "genus": "Oldus", "country": "Brasil", "state": "SP",
            "collect_date": "2020-01-01",
        }])
        dirty = curator.mark_dirty([33])
        assert dirty == ["shard:00002"]
        result = curator.assess()
        assert result.quality["records"] == 33
        assert result.shards_recomputed == 1
        assert result.shards_reused == 2

    def test_fixing_a_record_clears_its_review_row(self):
        database = make_database(40)
        curator = make_curator(database)
        curator.assess()
        database.update_where("recordings", col("record_id") == 10,
                              {"species": "Goodus fixedus"})
        curator.mark_dirty([10])
        result = curator.assess()
        assert 10 not in {row["record_id"] for row in result.review}
        assert result.quality["outdated_records"] == 3

    def test_mark_dirty_empty_is_noop(self):
        curator = make_curator(make_database(16))
        curator.assess()
        assert curator.mark_dirty([]) == []
        assert curator.assess().shards_recomputed == 0

    def test_mark_batch_dirty_accepts_rows_and_objects(self):
        curator = make_curator(make_database(32))
        curator.assess()

        class Arrival:
            record_id = 20

        dirty = curator.mark_batch_dirty([{"record_id": 1}, Arrival()])
        assert dirty == ["shard:00000", "shard:00001"]


class TestResourceBump:
    def test_bump_reruns_all_shards_but_replays_readers(self):
        versions = {"mode": "strict"}

        def versioned_resolver(name):
            if versions["mode"] == "lenient":
                return {"status": "accepted", "accepted_name": name,
                        "suggestion": None}
            return fake_resolver(name)

        curator = IncrementalCurator(
            make_database(64), versioned_resolver, shard_size=16,
            resource_versions={"catalogue": 1})
        first = curator.assess()
        assert first.quality["outdated_records"] == 6
        hits_before = curator.cache.stats()["hits"]
        versions["mode"] = "lenient"
        dropped = curator.bump_resource("catalogue")
        assert dropped == 4  # one assessor entry per shard
        result = curator.assess()
        assert result.shards_recomputed == 4
        assert result.quality["outdated_records"] == 0
        # reader stages came straight out of the cache
        assert curator.cache.stats()["hits"] == hits_before + 4
        assert curator.resource_versions["catalogue"] == 2

    def test_bump_with_explicit_version(self):
        curator = make_curator(make_database(16))
        curator.assess()
        curator.bump_resource("catalogue", 2015)
        assert curator.resource_versions["catalogue"] == 2015


class TestProvenance:
    def test_partial_runs_are_stitched_into_the_store(self):
        curator = make_curator(make_database(48))
        first = curator.assess()
        assert len(first.run_ids) == 3
        curator.mark_dirty([1])
        second = curator.assess()
        assert len(second.run_ids) == 1
        stored = curator.provenance.repository
        for run_id in first.run_ids + second.run_ids:
            assert stored.has_run(run_id)

    def test_full_reassess_replays_from_cache(self):
        curator = make_curator(make_database(48))
        first = curator.assess()
        result = curator.assess(full=True)
        assert result.shards_recomputed == 3
        assert result.digest == first.digest
        # nothing changed, so both stages of every shard were cache hits
        assert curator.cache.stats()["hits"] >= 6


class TestValidation:
    def test_rejects_bad_shard_size(self):
        with pytest.raises(ValueError):
            make_curator(make_database(1), shard_size=0)

    def test_stats_shape(self):
        curator = make_curator(make_database(20))
        curator.assess()
        stats = curator.stats()
        assert stats["shards_known"] == 2
        assert stats["dirty_shards"] == 0
        assert stats["resource_versions"] == {"catalogue": 1}
