"""Transactions: commit, rollback, context-manager semantics."""

import pytest

from repro.errors import TransactionError
from repro.storage import Column, Database, TableSchema
from repro.storage import column_types as ct


@pytest.fixture()
def db():
    database = Database("tx")
    database.create_table(TableSchema("t", [
        Column("id", ct.INTEGER),
        Column("v", ct.TEXT),
    ], primary_key="id"))
    database.insert("t", {"id": 1, "v": "original"})
    return database


class TestCommit:
    def test_commit_keeps_changes(self, db):
        with db.transaction():
            db.insert("t", {"id": 2, "v": "new"})
        assert db.count("t") == 2

    def test_explicit_commit(self, db):
        tx = db.transaction()
        db.insert("t", {"id": 2, "v": "x"})
        tx.commit()
        assert db.count("t") == 2
        assert not db.in_transaction()


class TestRollback:
    def test_exception_rolls_back_insert(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("t", {"id": 2, "v": "x"})
                raise RuntimeError("boom")
        assert db.count("t") == 1

    def test_rollback_restores_update(self, db):
        rowid = db.rowid_for("t", 1)
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.update("t", rowid, {"v": "changed"})
                raise RuntimeError("boom")
        assert db.get("t", 1)["v"] == "original"

    def test_rollback_restores_delete(self, db):
        rowid = db.rowid_for("t", 1)
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.delete("t", rowid)
                raise RuntimeError("boom")
        assert db.get("t", 1)["v"] == "original"

    def test_rollback_multi_operation_order(self, db):
        rowid = db.rowid_for("t", 1)
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.update("t", rowid, {"v": "a"})
                db.update("t", rowid, {"v": "b"})
                db.insert("t", {"id": 2, "v": "x"})
                db.delete("t", rowid)
                raise RuntimeError("boom")
        assert db.count("t") == 1
        assert db.get("t", 1)["v"] == "original"

    def test_rollback_restores_unique_index(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("t", {"id": 2, "v": "x"})
                raise RuntimeError("boom")
        # id 2 must be free again
        db.insert("t", {"id": 2, "v": "y"})

    def test_explicit_rollback(self, db):
        tx = db.transaction()
        db.insert("t", {"id": 2, "v": "x"})
        tx.rollback()
        assert db.count("t") == 1


class TestMisuse:
    def test_nested_transaction_rejected(self, db):
        with db.transaction():
            with pytest.raises(TransactionError):
                db.transaction()

    def test_double_commit_rejected(self, db):
        tx = db.transaction()
        tx.commit()
        with pytest.raises(TransactionError):
            tx.commit()

    def test_rollback_after_commit_rejected(self, db):
        tx = db.transaction()
        tx.commit()
        with pytest.raises(TransactionError):
            tx.rollback()

    def test_record_after_close_rejected(self, db):
        tx = db.transaction()
        tx.commit()
        with pytest.raises(TransactionError):
            tx.record("t", "insert", 1, None, {})

    def test_pending_operations_counter(self, db):
        with db.transaction() as tx:
            assert tx.pending_operations == 0
            db.insert("t", {"id": 2, "v": "x"})
            assert tx.pending_operations == 1


class TestJournalInteraction:
    def test_rolled_back_work_not_journaled(self, tmp_path):
        path = tmp_path / "j.log"
        db = Database("tx", journal_path=path)
        db.create_table(TableSchema("t", [
            Column("id", ct.INTEGER)], primary_key="id"))
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("t", {"id": 1})
                raise RuntimeError("boom")
        recovered = Database.recover("tx", path)
        assert recovered.count("t") == 0

    def test_committed_work_journaled_atomically(self, tmp_path):
        path = tmp_path / "j.log"
        db = Database("tx", journal_path=path)
        db.create_table(TableSchema("t", [
            Column("id", ct.INTEGER)], primary_key="id"))
        with db.transaction():
            db.insert("t", {"id": 1})
            db.insert("t", {"id": 2})
        recovered = Database.recover("tx", path)
        assert recovered.count("t") == 2

    def test_commit_cut_short_recovers_none_of_it(self, tmp_path):
        path = tmp_path / "j.log"
        db = Database("tx", journal_path=path)
        db.create_table(TableSchema("t", [
            Column("id", ct.INTEGER)], primary_key="id"))
        db.insert("t", {"id": 1})
        with db.transaction():
            db.insert("t", {"id": 2})
        earlier = path.stat().st_size
        with db.transaction():
            for key in (3, 4, 5):
                db.insert("t", {"id": key})
        journal = path.read_bytes()
        # every crash point that leaves the last commit incomplete
        for cut in range(earlier, len(journal) - 1):
            path.write_bytes(journal[:cut])
            recovered = Database.recover("tx", path)
            assert sorted(recovered.query("t").values("id")) == [1, 2], cut


class TestFailedRollback:
    """Regression (satellite bugfix): a ``restore_*`` crash mid-replay
    used to leave the transaction in state ``open`` with only part of
    the undo log applied — it could then be committed or rolled back
    again on top of the corrupt state."""

    def _crashing_rollback(self, db, monkeypatch):
        from repro.storage.table import Table

        tx = db.transaction()
        db.insert("t", {"id": 2, "v": "x"})

        def boom(self, rowid):
            raise RuntimeError("simulated index corruption")

        monkeypatch.setattr(Table, "restore_delete", boom)
        with pytest.raises(TransactionError, match="mid-replay"):
            tx.rollback()
        monkeypatch.undo()
        return tx

    def test_failed_rollback_marks_transaction_failed(self, db, monkeypatch):
        tx = self._crashing_rollback(db, monkeypatch)
        assert tx.state == "failed"

    def test_failed_transaction_refuses_reuse(self, db, monkeypatch):
        tx = self._crashing_rollback(db, monkeypatch)
        with pytest.raises(TransactionError, match="failed"):
            tx.commit()
        with pytest.raises(TransactionError, match="failed"):
            tx.rollback()
        with pytest.raises(TransactionError, match="failed"):
            tx.record("t", "insert", 1, None, {})

    def test_failure_wraps_original_exception(self, db, monkeypatch):
        from repro.storage.table import Table

        tx = db.transaction()
        db.insert("t", {"id": 2, "v": "x"})

        def boom(self, rowid):
            raise RuntimeError("simulated index corruption")

        monkeypatch.setattr(Table, "restore_delete", boom)
        with pytest.raises(TransactionError) as excinfo:
            tx.rollback()
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_database_recovers_after_failed_rollback(self, db, monkeypatch):
        self._crashing_rollback(db, monkeypatch)
        # the wedged transaction was abandoned: a new session can open a
        # transaction and touch the same table
        with db.transaction():
            db.insert("t", {"id": 3, "v": "fresh"})
        assert db.get("t", 3)["v"] == "fresh"

    def test_context_manager_propagates_failed_rollback(self, db,
                                                        monkeypatch):
        from repro.storage.table import Table

        def boom(self, rowid):
            raise RuntimeError("simulated index corruption")

        with pytest.raises(TransactionError, match="mid-replay"):
            with db.transaction():
                db.insert("t", {"id": 2, "v": "x"})
                monkeypatch.setattr(Table, "restore_delete", boom)
                raise ValueError("application error")


class TestSecondTransactionGuard:
    """Regression (satellite bugfix): opening a second transaction in
    the same session must raise — before the guard, the second begin
    silently interleaved undo records with the first."""

    def test_second_begin_same_thread_raises_clearly(self, db):
        with db.transaction():
            with pytest.raises(TransactionError, match="already open"):
                db.transaction()

    def test_first_transaction_unharmed_by_rejected_begin(self, db):
        tx = db.transaction()
        db.insert("t", {"id": 2, "v": "x"})
        with pytest.raises(TransactionError):
            db.transaction()
        # the pre-fix corruption scenario: the rejected begin must not
        # have disturbed the open transaction's undo log
        assert tx.pending_operations == 1
        tx.rollback()
        assert db.count("t") == 1

    def test_other_threads_may_run_their_own_transaction(self, db):
        import threading

        tx = db.transaction()
        errors = []

        def other():
            try:
                with db.transaction():
                    db.insert("t", {"id": 9, "v": "peer"})
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        thread = threading.Thread(target=other)
        thread.start()
        thread.join(timeout=10)
        assert not errors
        tx.commit()
        assert db.get("t", 9)["v"] == "peer"


class TestRollbackFailureTelemetry:
    """Regression (satellite bugfix): the mid-replay abandon path was a
    bare ``except Exception`` with no observable trace — operators had
    no signal that a database was left with a half-undone transaction."""

    def test_failed_rollback_increments_counter(self, db, monkeypatch):
        from repro.storage.table import Table
        from repro.telemetry import (Telemetry, get_telemetry,
                                     set_telemetry)

        previous = get_telemetry()
        set_telemetry(Telemetry())
        try:
            tx = db.transaction()
            db.insert("t", {"id": 2, "v": "x"})

            def boom(self, rowid):
                raise RuntimeError("simulated index corruption")

            monkeypatch.setattr(Table, "restore_delete", boom)
            with pytest.raises(TransactionError, match="mid-replay"):
                tx.rollback()
            counter = get_telemetry().metrics.counter(
                "storage_rollback_failures_total", database="tx")
            assert counter.value == 1
        finally:
            set_telemetry(previous)

    def test_clean_rollback_does_not_count(self, db):
        from repro.telemetry import (Telemetry, get_telemetry,
                                     set_telemetry)

        previous = get_telemetry()
        set_telemetry(Telemetry())
        try:
            with db.transaction() as tx:
                db.insert("t", {"id": 2, "v": "x"})
                tx.rollback()
            counter = get_telemetry().metrics.counter(
                "storage_rollback_failures_total", database="tx")
            assert counter.value == 0
        finally:
            set_telemetry(previous)
