"""Journal durability: replay, snapshots, corruption handling."""

import datetime as dt

import pytest

from repro.errors import JournalError
from repro.storage import Column, Database, Journal, TableSchema, col
from repro.storage import column_types as ct


def make_db(path):
    db = Database("d", journal_path=path)
    db.create_table(TableSchema("t", [
        Column("id", ct.INTEGER),
        Column("name", ct.TEXT),
        Column("when", ct.DATE),
    ], primary_key="id"))
    return db


class TestReplay:
    def test_insert_replayed(self, tmp_path):
        path = tmp_path / "j.log"
        db = make_db(path)
        db.insert("t", {"id": 1, "name": "a",
                        "when": dt.date(1975, 1, 2)})
        recovered = Database.recover("d", path)
        assert recovered.get("t", 1)["when"] == dt.date(1975, 1, 2)

    def test_update_replayed(self, tmp_path):
        path = tmp_path / "j.log"
        db = make_db(path)
        db.insert("t", {"id": 1, "name": "a"})
        db.update("t", db.rowid_for("t", 1), {"name": "b"})
        recovered = Database.recover("d", path)
        assert recovered.get("t", 1)["name"] == "b"

    def test_delete_replayed(self, tmp_path):
        path = tmp_path / "j.log"
        db = make_db(path)
        db.insert("t", {"id": 1, "name": "a"})
        db.delete("t", db.rowid_for("t", 1))
        recovered = Database.recover("d", path)
        assert recovered.count("t") == 0

    def test_drop_table_replayed(self, tmp_path):
        path = tmp_path / "j.log"
        db = make_db(path)
        db.drop_table("t")
        recovered = Database.recover("d", path)
        assert not recovered.has_table("t")

    def test_index_replayed(self, tmp_path):
        path = tmp_path / "j.log"
        db = make_db(path)
        db.create_index("t", "name", "sorted")
        recovered = Database.recover("d", path)
        assert recovered.table("t").index_on("name") is not None

    def test_rowids_stable_across_recovery(self, tmp_path):
        path = tmp_path / "j.log"
        db = make_db(path)
        db.insert("t", {"id": 1, "name": "a"})
        db.insert("t", {"id": 2, "name": "b"})
        db.delete("t", db.rowid_for("t", 1))
        recovered = Database.recover("d", path)
        # a fresh insert must not collide with an existing rowid
        recovered.insert("t", {"id": 3, "name": "c"})
        assert recovered.count("t") == 2


class TestSnapshot:
    def test_checkpoint_then_recover(self, tmp_path):
        path = tmp_path / "j.log"
        db = make_db(path)
        db.insert("t", {"id": 1, "name": "a"})
        db.checkpoint()
        db.insert("t", {"id": 2, "name": "b"})
        recovered = Database.recover("d", path)
        assert recovered.count("t") == 2

    def test_checkpoint_truncates_journal(self, tmp_path):
        path = tmp_path / "j.log"
        db = make_db(path)
        for i in range(5):
            db.insert("t", {"id": i, "name": str(i)})
        db.checkpoint()
        assert path.read_text() == ""

    def test_checkpoint_in_memory_is_noop(self):
        db = Database("mem")
        assert db.checkpoint() is None


class TestCorruption:
    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "j.log"
        db = make_db(path)
        db.insert("t", {"id": 1, "name": "a"})
        with path.open("a") as handle:
            handle.write('{"op": "insert", "table": "t"')  # torn write
        recovered = Database.recover("d", path)
        assert recovered.count("t") == 1

    def test_recovery_cuts_torn_tail_before_next_append(self, tmp_path):
        path = tmp_path / "j.log"
        db = make_db(path)
        db.insert("t", {"id": 1, "name": "cut short"})
        path.write_bytes(path.read_bytes()[:-20])  # crash mid-append
        recovered = Database.recover("d", path)
        assert recovered.count("t") == 0
        recovered.insert("t", {"id": 2, "name": "b"})
        recovered.insert("t", {"id": 3, "name": "c"})
        again = Database.recover("d", path)
        assert sorted(again.query("t").values("id")) == [2, 3]

    def test_unterminated_final_line_is_torn(self, tmp_path):
        path = tmp_path / "j.log"
        db = make_db(path)
        db.insert("t", {"id": 1, "name": "a"})
        intact = path.stat().st_size
        db.insert("t", {"id": 2, "name": "b"})
        path.write_bytes(path.read_bytes()[:-1])  # only the newline lost
        recovered = Database.recover("d", path)
        assert recovered.query("t").values("id") == [1]
        assert path.stat().st_size == intact

    def test_corruption_in_middle_raises(self, tmp_path):
        path = tmp_path / "j.log"
        db = make_db(path)
        db.insert("t", {"id": 1, "name": "a"})
        lines = path.read_text().splitlines()
        lines.insert(1, "NOT JSON")
        path.write_text("\n".join(lines) + "\n")
        db2 = Database("d")
        with pytest.raises(JournalError):
            Journal(path).replay(db2)

    def test_unknown_op_raises(self, tmp_path):
        path = tmp_path / "j.log"
        journal = Journal(path)
        journal.append({"op": "explode"})
        with pytest.raises(JournalError, match="unknown journal op"):
            journal.replay(Database("d"))

    def test_missing_journal_is_empty(self, tmp_path):
        journal = Journal(tmp_path / "never-written.log")
        assert list(journal.entries()) == []


class TestDurabilityAcrossWorkload:
    def test_mixed_workload_equivalence(self, tmp_path):
        """After any sequence of committed ops, recover() must produce a
        database whose visible rows equal the original's."""
        path = tmp_path / "j.log"
        db = make_db(path)
        for i in range(30):
            db.insert("t", {"id": i, "name": f"name{i}"})
        db.update_where("t", col("id") < 10, {"name": "early"})
        db.delete_where("t", col("id") >= 25)
        recovered = Database.recover("d", path)
        original_rows = sorted(db.table("t").rows(), key=lambda r: r["id"])
        recovered_rows = sorted(recovered.table("t").rows(),
                                key=lambda r: r["id"])
        assert original_rows == recovered_rows
