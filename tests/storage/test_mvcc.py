"""MVCC snapshots and concurrent transactions.

The marquee suite for the concurrent engine: snapshot isolation under
multi-threaded writers, first-writer-wins conflict detection,
rollback under contention, and a differential check that serial and
concurrent execution land on the same final state and an equivalent
journal.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import (
    ConstraintViolation,
    RowNotFoundError,
    StorageError,
    TransactionConflictError,
    TransactionError,
)
from repro.storage import Column, Database, TableSchema, col
from repro.storage import column_types as ct
from repro.storage.table import Table

WORKERS = 8


@pytest.fixture()
def db():
    database = Database("mvcc")
    database.create_table(TableSchema("t", [
        Column("id", ct.INTEGER),
        Column("v", ct.TEXT),
        Column("n", ct.INTEGER),
    ], primary_key="id"))
    database.insert("t", {"id": 1, "v": "one", "n": 10})
    database.insert("t", {"id": 2, "v": "two", "n": 20})
    return database


def run_in_thread(fn, *args):
    """Run ``fn`` in a worker thread, re-raising anything it raises."""
    result: dict = {}

    def target():
        try:
            result["value"] = fn(*args)
        except BaseException as exc:  # pragma: no cover - assertion aid
            result["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive(), "worker thread hung"
    if "error" in result:
        raise result["error"]
    return result.get("value")


class TestSnapshotReads:
    def test_snapshot_ignores_later_insert(self, db):
        snap = db.snapshot()
        db.insert("t", {"id": 3, "v": "three", "n": 30})
        assert snap.count("t") == 2
        assert db.count("t") == 3
        snap.release()

    def test_snapshot_ignores_later_update_and_delete(self, db):
        rowid = db.rowid_for("t", 1)
        with db.snapshot() as snap:
            db.update("t", rowid, {"v": "changed"})
            db.delete("t", db.rowid_for("t", 2))
            rows = {row["id"]: row["v"] for row in snap.query("t").all()}
            assert rows == {1: "one", 2: "two"}

    def test_snapshot_query_predicates_and_order(self, db):
        db.insert("t", {"id": 3, "v": "three", "n": 5})
        with db.snapshot() as snap:
            db.update("t", db.rowid_for("t", 3), {"n": 99})
            rows = (snap.query("t").where(col("n") < 15)
                    .order_by("n").all())
            assert [row["id"] for row in rows] == [3, 1]

    def test_snapshot_join_resolves_through_snapshot(self, db):
        db.create_table(TableSchema("labels", [
            Column("key", ct.INTEGER),
            Column("label", ct.TEXT),
        ], primary_key="key"))
        db.insert("labels", {"key": 1, "label": "old"})
        with db.snapshot() as snap:
            db.update("labels", db.rowid_for("labels", 1),
                      {"label": "new"})
            joined = (snap.query("t").join("labels", "id", "key")
                      .all())
            assert len(joined) == 1
            assert joined[0]["labels.label"] == "old"

    def test_uncommitted_writes_invisible_to_snapshot(self, db):
        snap = db.snapshot()
        started = threading.Event()
        release = threading.Event()

        def writer():
            with db.transaction():
                db.insert("t", {"id": 3, "v": "dirty", "n": 0})
                db.update("t", db.rowid_for("t", 1), {"v": "dirty"})
                started.set()
                assert release.wait(timeout=10)

        thread = threading.Thread(target=writer)
        thread.start()
        assert started.wait(timeout=10)
        try:
            rows = {row["id"]: row["v"] for row in snap.query("t").all()}
            assert rows == {1: "one", 2: "two"}
            # even a snapshot taken *now* must not see the dirty rows
            with db.snapshot() as fresh:
                assert {r["id"]: r["v"] for r in fresh.query("t").all()} \
                    == {1: "one", 2: "two"}
        finally:
            release.set()
            thread.join(timeout=10)
        snap.release()
        assert db.get("t", 1)["v"] == "dirty"

    def test_row_by_id_respects_snapshot(self, db):
        rowid = db.rowid_for("t", 1)
        with db.snapshot() as snap:
            db.delete("t", rowid)
            assert snap.table("t").row_by_id(rowid)["v"] == "one"
        with db.snapshot() as snap:
            with pytest.raises(RowNotFoundError):
                snap.table("t").row_by_id(rowid)

    def test_released_snapshot_refuses_reads(self, db):
        snap = db.snapshot()
        snap.release()
        snap.release()  # idempotent
        with pytest.raises(StorageError, match="released"):
            snap.query("t")

    def test_snapshot_survives_pruning(self, db):
        rowid = db.rowid_for("t", 1)
        with db.snapshot() as snap:
            # far more commits than the prune interval
            for i in range(200):
                db.update("t", rowid, {"n": i})
            assert snap.table("t").row_by_id(rowid)["n"] == 10

    def test_history_pruned_after_release(self, db):
        rowid = db.rowid_for("t", 1)
        snap = db.snapshot()
        for i in range(100):
            db.update("t", rowid, {"n": i})
        snap.release()
        for i in range(100):
            db.update("t", rowid, {"n": i})
        table = db.table("t")
        # old versions nobody can see any more must not pile up
        assert sum(len(chain) for chain in table._history.values()) <= 3


class TestConflicts:
    def test_write_write_conflict_is_deterministic(self, db):
        rowid = db.rowid_for("t", 1)
        claimed = threading.Event()
        release = threading.Event()

        def first_writer():
            with db.transaction():
                db.update("t", rowid, {"v": "first"})
                claimed.set()
                assert release.wait(timeout=10)

        thread = threading.Thread(target=first_writer)
        thread.start()
        assert claimed.wait(timeout=10)
        try:
            with pytest.raises(TransactionConflictError,
                               match="first writer wins"):
                with db.transaction():
                    db.update("t", rowid, {"v": "second"})
        finally:
            release.set()
            thread.join(timeout=10)
        assert db.get("t", 1)["v"] == "first"

    def test_autocommit_write_to_claimed_row_conflicts(self, db):
        rowid = db.rowid_for("t", 1)
        claimed = threading.Event()
        release = threading.Event()

        def holder():
            with db.transaction():
                db.update("t", rowid, {"v": "held"})
                claimed.set()
                assert release.wait(timeout=10)

        thread = threading.Thread(target=holder)
        thread.start()
        assert claimed.wait(timeout=10)
        try:
            with pytest.raises(TransactionConflictError):
                db.update("t", rowid, {"v": "bare"})
        finally:
            release.set()
            thread.join(timeout=10)

    def test_first_committer_wins_on_stale_write(self, db):
        rowid = db.rowid_for("t", 1)
        tx = db.transaction()
        # another session commits the row after this transaction began
        run_in_thread(lambda: db.update("t", rowid, {"v": "newer"}))
        with pytest.raises(TransactionConflictError,
                           match="first committer wins"):
            db.update("t", rowid, {"v": "stale"})
        tx.rollback()
        assert db.get("t", 1)["v"] == "newer"

    def test_disjoint_rows_do_not_conflict(self, db):
        rid1 = db.rowid_for("t", 1)
        rid2 = db.rowid_for("t", 2)
        claimed = threading.Event()
        release = threading.Event()

        def writer():
            with db.transaction():
                db.update("t", rid1, {"v": "a"})
                claimed.set()
                assert release.wait(timeout=10)

        thread = threading.Thread(target=writer)
        thread.start()
        assert claimed.wait(timeout=10)
        try:
            with db.transaction():
                db.update("t", rid2, {"v": "b"})
        finally:
            release.set()
            thread.join(timeout=10)
        assert db.get("t", 1)["v"] == "a"
        assert db.get("t", 2)["v"] == "b"

    def test_claims_released_after_rollback(self, db):
        rowid = db.rowid_for("t", 1)

        def failed_attempt():
            with pytest.raises(RuntimeError):
                with db.transaction():
                    db.update("t", rowid, {"v": "doomed"})
                    raise RuntimeError("boom")

        run_in_thread(failed_attempt)
        db.update("t", rowid, {"v": "after"})  # row is free again
        assert db.get("t", 1)["v"] == "after"


class TestConcurrentWorkers:
    def test_snapshot_isolation_under_contention(self, db):
        """WORKERS writer threads transfer between two accounts while
        readers assert the invariant (sum == 30) on every snapshot."""
        rid1 = db.rowid_for("t", 1)
        rid2 = db.rowid_for("t", 2)
        stop = threading.Event()
        violations: list[int] = []

        def writer(seed: int) -> int:
            done = 0
            for step in range(25):
                amount = (seed + step) % 5 + 1
                while True:
                    try:
                        with db.transaction():
                            a = db.table("t").row_by_id(rid1)["n"]
                            b = db.table("t").row_by_id(rid2)["n"]
                            db.update("t", rid1, {"n": a - amount})
                            db.update("t", rid2, {"n": b + amount})
                        done += 1
                        break
                    except TransactionConflictError:
                        continue
            return done

        def reader() -> int:
            seen = 0
            while not stop.is_set():
                with db.snapshot() as snap:
                    total = sum(row["n"] for row in snap.query("t").all())
                if total != 30:
                    violations.append(total)
                seen += 1
            return seen

        with ThreadPoolExecutor(max_workers=WORKERS + 2) as pool:
            readers = [pool.submit(reader) for _ in range(2)]
            writers = [pool.submit(writer, seed) for seed in range(WORKERS)]
            committed = sum(f.result() for f in writers)
            stop.set()
            observed = sum(f.result() for f in readers)
        assert committed == WORKERS * 25
        assert observed > 0
        assert violations == []
        assert (db.get("t", 1)["n"] + db.get("t", 2)["n"]) == 30

    def test_rollback_under_contention(self, db):
        """Workers whose transactions abort (conflict or deliberate
        failure) must leave no trace: the final count equals exactly the
        successful commits."""
        lock = threading.Lock()
        outcomes = {"committed": 0, "aborted": 0}

        def worker(index: int) -> None:
            for step in range(10):
                key = 100 + index * 10 + step
                try:
                    with db.transaction():
                        db.insert("t", {"id": key, "v": f"w{index}",
                                        "n": step})
                        if step % 3 == 2:
                            raise RuntimeError("deliberate abort")
                    with lock:
                        outcomes["committed"] += 1
                except RuntimeError:
                    with lock:
                        outcomes["aborted"] += 1

        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            list(pool.map(worker, range(WORKERS)))
        assert outcomes["aborted"] == WORKERS * 3
        assert db.count("t") == 2 + outcomes["committed"]
        assert outcomes["committed"] == WORKERS * 7

    def test_per_thread_guard_still_rejects_nested(self, db):
        with db.transaction():
            with pytest.raises(TransactionError, match="already open"):
                db.transaction()

    def test_threads_get_independent_transactions(self, db):
        main_tx = db.transaction()
        db.insert("t", {"id": 50, "v": "main", "n": 0})

        def other_session():
            assert not db.in_transaction()  # main's tx is not ours
            with db.transaction():
                db.insert("t", {"id": 51, "v": "other", "n": 0})

        run_in_thread(other_session)
        main_tx.commit()
        assert {row["v"] for row in db.query("t")
                .where(col("id") >= 50).all()} == {"main", "other"}


def _apply_ops(database: Database, worker: int, op_count: int) -> None:
    """Deterministic per-worker op stream over a disjoint key range."""
    base = 1000 + worker * op_count
    for step in range(op_count):
        key = base + step
        with database.transaction():
            database.insert("ops", {"id": key, "worker": worker,
                                    "step": step})
            if step % 2:
                database.update(
                    "ops", database.rowid_for("ops", key - 1),
                    {"step": step * 100})
            if step % 5 == 4:
                database.delete(
                    "ops", database.rowid_for("ops", key - 4))


def _ops_db(tmp_path, label: str) -> Database:
    database = Database(label, journal_path=tmp_path / f"{label}.journal")
    database.create_table(TableSchema("ops", [
        Column("id", ct.INTEGER),
        Column("worker", ct.INTEGER),
        Column("step", ct.INTEGER),
    ], primary_key="id"))
    return database


def _final_state(database: Database) -> list[tuple]:
    return sorted(
        (row["id"], row["worker"], row["step"])
        for row in database.query("ops").all()
    )


class TestSerialConcurrentDifferential:
    def test_concurrent_matches_serial_state_and_journal(self, tmp_path):
        op_count = 20

        serial = _ops_db(tmp_path, "serial")
        for worker in range(WORKERS):
            _apply_ops(serial, worker, op_count)

        concurrent = _ops_db(tmp_path, "concurrent")
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            list(pool.map(
                lambda worker: _apply_ops(concurrent, worker, op_count),
                range(WORKERS)))

        expected = _final_state(serial)
        assert _final_state(concurrent) == expected
        # the journal must describe an equivalent history: replaying
        # each one rebuilds the same final state
        recovered_serial = Database.recover(
            "serial", tmp_path / "serial.journal")
        recovered_concurrent = Database.recover(
            "concurrent", tmp_path / "concurrent.journal")
        assert _final_state(recovered_serial) == expected
        assert _final_state(recovered_concurrent) == expected


class TestAutocommitSnapshotRace:
    """Lock-free snapshot readers vs in-flight autocommit statements.

    The pre-image must be pinned in the version history *before* the
    physical row mutates; otherwise a reader hitting the clean-row
    fallback in ``Table.version_at`` mid-statement sees post-snapshot
    data (or watches a deleted row vanish).
    """

    def test_preimage_pinned_before_physical_update(self, db, monkeypatch):
        rowid = db.rowid_for("t", 1)
        snap = db.snapshot()
        seen = {}
        original = Table.update_row

        def spying_update_row(table, rid, changes):
            seen["pinned"] = rid in table._history
            return original(table, rid, changes)

        monkeypatch.setattr(Table, "update_row", spying_update_row)
        db.update("t", rowid, {"v": "post"})
        assert seen["pinned"] is True
        assert snap.table("t").row_by_id(rowid)["v"] == "one"
        snap.release()

    def test_preimage_pinned_before_physical_delete(self, db, monkeypatch):
        rowid = db.rowid_for("t", 2)
        snap = db.snapshot()
        seen = {}
        original = Table.delete_row

        def spying_delete_row(table, rid):
            seen["pinned"] = rid in table._history
            return original(table, rid)

        monkeypatch.setattr(Table, "delete_row", spying_delete_row)
        db.delete("t", rowid)
        assert seen["pinned"] is True
        assert snap.table("t").row_by_id(rowid)["v"] == "two"
        snap.release()

    def test_absent_baseline_pinned_before_physical_insert(
            self, db, monkeypatch):
        snap = db.snapshot()
        seen = {}
        original = Table.insert

        def spying_insert(table, values):
            seen["pinned"] = table._next_rowid in table._history
            return original(table, values)

        monkeypatch.setattr(Table, "insert", spying_insert)
        rowid = db.insert("t", {"id": 3, "v": "three", "n": 30})
        assert seen["pinned"] is True
        with pytest.raises(RowNotFoundError):
            snap.table("t").row_by_id(rowid)
        snap.release()

    def test_snapshot_stable_under_autocommit_churn(self, db):
        """Readers hammer clean rows while a writer autocommits the
        first-ever write to each one — the exact window the race lived
        in.  Every read must resolve to the pinned pre-state."""
        rowids = [
            db.insert("t", {"id": 100 + i, "v": "orig", "n": i})
            for i in range(200)
        ]
        bad: list = []
        stop = threading.Event()
        with db.snapshot() as snap:
            view = snap.table("t")

            def reader():
                while not stop.is_set():
                    for rowid in rowids:
                        try:
                            value = view.row_by_id(rowid)["v"]
                        except RowNotFoundError:
                            bad.append((rowid, "missing"))
                            return
                        if value != "orig":
                            bad.append((rowid, value))
                            return

            threads = [threading.Thread(target=reader) for _ in range(3)]
            for thread in threads:
                thread.start()
            half = len(rowids) // 2
            for rowid in rowids[:half]:
                db.update("t", rowid, {"v": "post"})
            for rowid in rowids[half:]:
                db.delete("t", rowid)
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive(), "reader thread hung"
        assert bad == []


class TestMultiRowStatementAtomicity:
    """update_where/delete_where must be all-or-nothing in autocommit
    mode: a conflict or constraint violation on a later row rolls back
    the rows already touched."""

    def test_update_where_rolls_back_on_mid_statement_conflict(self, db):
        rid2 = db.rowid_for("t", 2)
        claimed = threading.Event()
        release = threading.Event()

        def holder():
            with db.transaction():
                db.update("t", rid2, {"n": 999})
                claimed.set()
                assert release.wait(timeout=10)

        thread = threading.Thread(target=holder)
        thread.start()
        assert claimed.wait(timeout=10)
        try:
            with pytest.raises(TransactionConflictError):
                db.update_where("t", col("n") >= 0, {"v": "swept"})
            # row 1 matched first; it must not keep the write after
            # row 2 conflicted
            assert db.get("t", 1)["v"] == "one"
        finally:
            release.set()
            thread.join(timeout=10)
        assert db.get("t", 2)["n"] == 999

    def test_delete_where_rolls_back_on_mid_statement_conflict(self, db):
        rid2 = db.rowid_for("t", 2)
        claimed = threading.Event()
        release = threading.Event()

        def holder():
            with db.transaction():
                db.update("t", rid2, {"n": 999})
                claimed.set()
                assert release.wait(timeout=10)

        thread = threading.Thread(target=holder)
        thread.start()
        assert claimed.wait(timeout=10)
        try:
            with pytest.raises(TransactionConflictError):
                db.delete_where("t", col("n") >= 0)
            assert db.count("t") == 2
            assert db.get("t", 1)["v"] == "one"
        finally:
            release.set()
            thread.join(timeout=10)

    def test_update_where_atomic_on_constraint_violation(self, db):
        # both rows move to the same unique primary key: the second one
        # violates UNIQUE, so the first must roll back too
        with pytest.raises(ConstraintViolation):
            db.update_where("t", col("n") >= 0, {"id": 7})
        assert {row["id"] for row in db.query("t").all()} == {1, 2}

    def test_update_where_inside_transaction_rolls_back_with_it(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                assert db.update_where("t", col("n") >= 0,
                                       {"v": "swept"}) == 2
                raise RuntimeError("abort")
        assert {row["v"] for row in db.query("t").all()} == {"one", "two"}


class TestCommitDurabilityOrdering:
    """Journal append happens before committed images become visible:
    a failed append must leave no phantom committed versions and keep
    the transaction cleanly rollback-able."""

    def test_failed_journal_append_leaves_no_phantom_versions(
            self, tmp_path, monkeypatch):
        database = _ops_db(tmp_path, "dur")
        database.insert("ops", {"id": 1, "worker": 0, "step": 0})
        rowid = database.rowid_for("ops", 1)

        tx = database.transaction()
        database.update("ops", rowid, {"step": 99})

        def boom(entry):
            raise OSError("disk full")

        monkeypatch.setattr(database.journal, "append", boom)
        with pytest.raises(OSError):
            tx.commit()
        # the transaction is still open with nothing published: a fresh
        # snapshot must see the pre-image, not a phantom commit
        assert tx.state == "open"
        assert database.active_transactions() == 1
        with database.snapshot() as snap:
            assert snap.table("ops").row_by_id(rowid)["step"] == 0
        monkeypatch.undo()
        tx.rollback()
        assert database.get("ops", 1)["step"] == 0
        assert database.active_transactions() == 0
        # nothing of the failed commit hit the journal
        recovered = Database.recover("dur2", tmp_path / "dur.journal")
        assert recovered.get("ops", 1)["step"] == 0


class TestDeadThreadTransactions:
    """A thread exiting with an open transaction must not leak it: the
    claims would wedge those rows forever, block checkpoints, and (since
    OS thread idents are recycled) capture an unrelated new thread."""

    def test_dead_thread_transaction_is_reaped(self, db):
        rowid = db.rowid_for("t", 1)

        def open_and_die():
            db.transaction()
            db.update("t", rowid, {"v": "orphan"})

        thread = threading.Thread(target=open_and_die)
        thread.start()
        thread.join(timeout=10)
        # a new transaction reaps the orphan: its uncommitted write is
        # rolled back and the row claim released
        with db.transaction():
            db.update("t", rowid, {"v": "alive"})
        assert db.get("t", 1)["v"] == "alive"
        assert db.active_transactions() == 0

    def test_autocommit_write_not_blocked_by_dead_claim(self, db):
        rowid = db.rowid_for("t", 1)

        def open_and_die():
            db.transaction()
            db.update("t", rowid, {"v": "orphan"})

        thread = threading.Thread(target=open_and_die)
        thread.start()
        thread.join(timeout=10)
        db.update("t", rowid, {"v": "bare"})  # no conflict with a ghost
        assert db.get("t", 1)["v"] == "bare"

    def test_recycled_ident_does_not_capture_new_thread(self, db):
        rowid = db.rowid_for("t", 1)

        def open_and_die():
            transaction = db.transaction()
            db.update("t", rowid, {"v": "orphan"})
            return transaction

        dead_tx = run_in_thread(open_and_die)
        # simulate the OS handing the dead thread's ident to this thread
        with db._lock:
            db._active_tx.pop(dead_tx.thread_ident, None)
            dead_tx.thread_ident = threading.get_ident()
            db._active_tx[dead_tx.thread_ident] = dead_tx
        assert db.in_transaction() is False  # dead owner, not ours
        assert dead_tx.state == "failed"
        db.insert("t", {"id": 60, "v": "fresh", "n": 0})  # autocommit
        assert db.get("t", 1)["v"] == "one"  # orphan rolled back
        assert db.count("t") == 3

    def test_checkpoint_proceeds_after_owner_thread_dies(self, tmp_path):
        database = _ops_db(tmp_path, "reap")

        def open_and_die():
            database.transaction()
            database.insert("ops", {"id": 1, "worker": 0, "step": 0})

        thread = threading.Thread(target=open_and_die)
        thread.start()
        thread.join(timeout=10)
        assert database.checkpoint() is not None
        assert database.count("ops") == 0  # uncommitted insert reaped


class TestCheckpointGuard:
    def test_checkpoint_refused_with_open_transaction(self, tmp_path):
        database = _ops_db(tmp_path, "ckpt")
        tx = database.transaction()
        database.insert("ops", {"id": 1, "worker": 0, "step": 0})
        with pytest.raises(TransactionError, match="checkpoint"):
            database.checkpoint()
        tx.commit()
        assert database.checkpoint() is not None
