"""Database-level behaviour: DDL, CRUD helpers, keyed access, foreign
keys."""

import sys
import threading

import pytest

from repro.errors import (
    ConstraintViolation,
    DuplicateTableError,
    RowNotFoundError,
    UnknownTableError,
)
from repro.storage import Column, Database, ForeignKey, TableSchema, col
from repro.storage import column_types as ct


@pytest.fixture()
def db():
    database = Database("d")
    database.create_table(TableSchema("parent", [
        Column("id", ct.INTEGER),
        Column("name", ct.TEXT),
    ], primary_key="id"))
    database.create_table(TableSchema("child", [
        Column("id", ct.INTEGER),
        Column("parent_id", ct.INTEGER),
    ], primary_key="id",
        foreign_keys=[ForeignKey("parent_id", "parent", "id")]))
    return database


class TestDDL:
    def test_table_names_sorted(self, db):
        assert db.table_names() == ["child", "parent"]

    def test_duplicate_table(self, db):
        with pytest.raises(DuplicateTableError):
            db.create_table(TableSchema("parent", [Column("x", ct.TEXT)]))

    def test_fk_to_missing_table_rejected(self, db):
        with pytest.raises(UnknownTableError):
            db.create_table(TableSchema("orphan", [
                Column("id", ct.INTEGER),
                Column("ref", ct.INTEGER),
            ], foreign_keys=[ForeignKey("ref", "nothing", "id")]))

    def test_self_referencing_fk_allowed(self):
        db = Database("d")
        db.create_table(TableSchema("node", [
            Column("id", ct.INTEGER),
            Column("parent", ct.INTEGER),
        ], primary_key="id",
            foreign_keys=[ForeignKey("parent", "node", "id")]))
        db.insert("node", {"id": 1, "parent": None})
        db.insert("node", {"id": 2, "parent": 1})

    def test_drop_table(self, db):
        db.drop_table("child")
        assert not db.has_table("child")
        with pytest.raises(UnknownTableError):
            db.table("child")


class TestCRUDHelpers:
    def test_get_by_primary_key(self, db):
        db.insert("parent", {"id": 7, "name": "x"})
        assert db.get("parent", 7)["name"] == "x"

    def test_get_missing_raises(self, db):
        with pytest.raises(RowNotFoundError):
            db.get("parent", 999)

    def test_insert_many(self, db):
        ids = db.insert_many("parent", [
            {"id": 1, "name": "a"}, {"id": 2, "name": "b"},
        ])
        assert len(ids) == 2
        assert db.count("parent") == 2

    def test_update_where(self, db):
        db.insert_many("parent", [
            {"id": i, "name": "old"} for i in range(5)
        ])
        updated = db.update_where("parent", col("id") >= 3, {"name": "new"})
        assert updated == 2
        assert db.query("parent").where(col("name") == "new").count() == 2

    def test_delete_where(self, db):
        db.insert_many("parent", [{"id": i, "name": "x"} for i in range(5)])
        deleted = db.delete_where("parent", col("id") < 2)
        assert deleted == 2
        assert db.count("parent") == 3


class TestKeyedAccess:
    def test_find_hit_and_miss(self, db):
        db.insert("parent", {"id": 7, "name": "x"})
        assert db.find("parent", 7) == {"id": 7, "name": "x"}
        assert db.find("parent", 8) is None

    def test_upsert_inserts_then_updates_the_same_row(self, db):
        rowid = db.upsert("parent", {"id": 1, "name": "a"})
        assert db.upsert("parent", {"id": 1, "name": "b"}) == rowid
        assert db.rowid_for("parent", 1) == rowid
        assert db.get("parent", 1) == {"id": 1, "name": "b"}
        assert db.count("parent") == 1

    @staticmethod
    def _journaled(path):
        db = Database("d", journal_path=path)
        db.create_table(TableSchema("t", [
            Column("id", ct.INTEGER), Column("v", ct.TEXT),
        ], primary_key="id"))
        return db

    def test_rolled_back_upsert_leaves_no_trace(self, tmp_path):
        path = tmp_path / "j.log"
        db = self._journaled(path)
        db.insert("t", {"id": 1, "v": "kept"})
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.upsert("t", {"id": 1, "v": "lost"})
                db.upsert("t", {"id": 2, "v": "lost"})
                raise RuntimeError("abort")
        expected = [{"id": 1, "v": "kept"}]
        assert db.query("t").all() == expected
        assert Database.recover("d", path).query("t").all() == expected

    def test_journaled_upsert_recovers(self, tmp_path):
        path = tmp_path / "j.log"
        db = self._journaled(path)
        for key, value in ((1, "a"), (2, "b"), (1, "c")):
            db.upsert("t", {"id": key, "v": value})
        recovered = Database.recover("d", path)
        assert recovered.query("t").all() == db.query("t").all() == [
            {"id": 1, "v": "c"}, {"id": 2, "v": "b"}]

    def test_concurrent_upserts_keep_one_row_per_key(self, db):
        """Probe and write are one step: racing first upserts of a key
        must not both insert it (a UNIQUE violation).  The threads walk
        the keys in step, so each key's first upsert is contended."""
        n_threads, per_thread, n_keys = 8, 3000, 16
        barrier = threading.Barrier(n_threads)
        errors: list[Exception] = []

        def worker(worker_id: int) -> None:
            try:
                barrier.wait(timeout=10)
                for step in range(per_thread):
                    db.upsert("parent", {"id": step * n_keys // per_thread,
                                         "name": f"w{worker_id}"})
            except Exception as exc:  # asserted empty after the join
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert db.count("parent") == n_keys


class TestForeignKeys:
    def test_valid_reference(self, db):
        db.insert("parent", {"id": 1, "name": "a"})
        db.insert("child", {"id": 1, "parent_id": 1})

    def test_dangling_reference_rejected(self, db):
        with pytest.raises(ConstraintViolation, match="FOREIGN KEY"):
            db.insert("child", {"id": 1, "parent_id": 42})

    def test_rejected_insert_leaves_no_row(self, db):
        with pytest.raises(ConstraintViolation):
            db.insert("child", {"id": 1, "parent_id": 42})
        assert db.count("child") == 0
        # the id must be reusable
        db.insert("parent", {"id": 42, "name": "late"})
        db.insert("child", {"id": 1, "parent_id": 42})

    def test_null_reference_allowed(self, db):
        db.insert("child", {"id": 1, "parent_id": None})

    def test_update_to_dangling_rejected_and_restored(self, db):
        db.insert("parent", {"id": 1, "name": "a"})
        db.insert("child", {"id": 1, "parent_id": 1})
        rowid = db.rowid_for("child", 1)
        with pytest.raises(ConstraintViolation):
            db.update("child", rowid, {"parent_id": 99})
        assert db.get("child", 1)["parent_id"] == 1
