"""The database: named tables, transactions, journaling, queries.

This is the "DBMS" of the paper's architecture — the access layer shared
by the data repository, the workflow repository and the provenance
repository.  A :class:`Database` can be purely in-memory (default) or
durable when constructed with a journal path.

Concurrency model (multi-tenant storage)
----------------------------------------

* **Statements are serialized, transactions interleave.**  Every
  mutation takes the database write lock for its own duration, so any
  number of threads can run transactions concurrently; their statements
  interleave at row granularity.
* **First-writer-wins conflicts.**  A transaction's first write to a row
  *claims* it.  A second transaction (or an autocommit statement)
  touching a claimed row fails immediately with
  :class:`~repro.errors.TransactionConflictError`; so does a write to a
  row that was committed after the transaction began.  Conflicts are
  deterministic and eager — callers retry the whole transaction.
* **MVCC snapshot reads.**  :meth:`Database.snapshot` pins the current
  commit sequence and returns a read view whose queries run against the
  committed state as of that point: versioned row images
  (:meth:`~repro.storage.table.Table.note_committed`) keep pre-images
  alive while writers churn, so readers never block writers and never
  see uncommitted or later-committed data.
* **Commit serialization through the journal.**  Each transaction
  buffers its journal entries; the commit appends them as one journal
  line under the write lock, so the write-ahead journal records one
  serial history equivalent to the interleaved execution, and recovery
  replays each commit whole or not at all.
"""

from __future__ import annotations

import threading
from contextlib import AbstractContextManager
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import (
    DuplicateTableError,
    RowNotFoundError,
    SchemaError,
    TransactionConflictError,
    TransactionError,
    UnknownTableError,
)
from repro.storage.journal import Journal, encode_row
from repro.storage.planner import plan_query
from repro.storage.predicate import Predicate
from repro.storage.query import Query, matching_rows
from repro.storage.schema import TableSchema
from repro.storage.snapshot import Snapshot
from repro.storage.table import Table
from repro.storage.transactions import Transaction

__all__ = ["Database"]

#: Commits between version-history pruning sweeps.
PRUNE_INTERVAL = 64


class Database:
    """A collection of tables with optional durability.

    Parameters
    ----------
    name:
        Purely informational label.
    journal_path:
        When given, every committed mutation is appended to a JSON-lines
        journal there, and :meth:`recover` can rebuild the database.
    """

    def __init__(self, name: str = "db",
                 journal_path: str | Path | None = None) -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        self._journal = Journal(journal_path) if journal_path else None
        # -- concurrency state ------------------------------------------
        # One re-entrant lock serializes mutations, commits and
        # rollbacks; snapshot readers only take it briefly to collect a
        # consistent rowid set.
        self._lock = threading.RLock()
        #: monotonically increasing commit sequence (MVCC timestamps)
        self._commit_seq = 0
        self._last_prune_seq = 0
        self._tx_counter = 0
        #: open transaction per thread ident (one per thread, any number
        #: of threads)
        self._active_tx: dict[int, Transaction] = {}
        #: write claims: ``(table, rowid) -> owning transaction``
        self._row_writers: dict[tuple[str, int], Transaction] = {}
        #: pinned snapshot seqs -> refcount (pruning floor)
        self._snapshots: dict[int, int] = {}

    def __repr__(self) -> str:
        return f"Database({self.name}, tables={sorted(self._tables)})"

    # ------------------------------------------------------------------
    # schema operations
    # ------------------------------------------------------------------

    def create_table(self, schema: TableSchema, *, _journal: bool = True) -> Table:
        """Create a table from ``schema``; returns it."""
        with self._lock:
            if schema.name in self._tables:
                raise DuplicateTableError(
                    f"table {schema.name!r} already exists")
            for fk in schema.foreign_keys:
                if fk.parent_table not in self._tables \
                        and fk.parent_table != schema.name:
                    raise UnknownTableError(
                        f"foreign key references missing table "
                        f"{fk.parent_table!r}"
                    )
            table = Table(schema)
            self._tables[schema.name] = table
            if _journal:
                self._journal_write(
                    {"op": "create_table", "schema": schema.to_dict()}
                )
            return table

    def drop_table(self, name: str, *, _journal: bool = True) -> None:
        with self._lock:
            if name not in self._tables:
                raise UnknownTableError(f"no table {name!r}")
            del self._tables[name]
            if _journal:
                self._journal_write({"op": "drop_table", "table": name})

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(f"no table {name!r}") from None

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def create_index(self, table: str, column: str, kind: str = "hash") -> None:
        """Create a secondary index; journaled so recovery keeps it.
        Idempotent: a call that leaves the index as it was writes no
        journal entry."""
        with self._lock:
            target = self.table(table)
            before = target.index_on(column)
            if target.create_index(column, kind) is not before:
                self._journal_write(
                    {"op": "create_index", "table": table,
                     "column": column, "kind": kind}
                )

    # ------------------------------------------------------------------
    # row operations
    # ------------------------------------------------------------------

    def insert(self, table_name: str, values: Mapping[str, Any]) -> int:
        """Insert one row; returns its row id."""
        from repro.errors import ConstraintViolation

        with self._lock:
            table = self.table(table_name)
            if self._snapshots or self._active_tx:
                # pin the "row absent" baseline before the physical row
                # lands: lock-free snapshot readers must resolve the new
                # rowid to "not visible yet", never to the fresh row
                table.pin_insert_baselines()
            rowid = table.insert(values)
            row = table.row_by_id(rowid)
            try:
                self._check_foreign_keys(table, row)
                self._claim_row(table, rowid, before=None)
            except ConstraintViolation:
                table.restore_delete(rowid)
                raise
            self._record_mutation(table_name, "insert", rowid, None, row)
            self._journal_write({
                "op": "insert", "table": table_name, "rowid": rowid,
                "row": encode_row(table.schema, row),
            })
            return rowid

    def insert_many(self, table_name: str,
                    rows: Iterable[Mapping[str, Any]]) -> list[int]:
        return [self.insert(table_name, row) for row in rows]

    def bulk_load(self, table_name: str,
                  rows: Iterable[Mapping[str, Any]]) -> list[int]:
        """Insert a batch of rows through the bulk write path.

        Compared to :meth:`insert_many` this validates the whole batch
        up front (a failing row leaves the table untouched), defers index
        maintenance to one bulk rebuild per index, and appends a single
        batched journal entry instead of one per row.  Foreign keys are
        checked after the batch lands so rows may reference each other
        (and themselves), mirroring :meth:`insert`; a violation rolls the
        whole batch back.
        """
        from repro.errors import ConstraintViolation

        with self._lock:
            table = self.table(table_name)
            prepared = table.prepare_rows(rows)
            if self._snapshots or self._active_tx:
                table.pin_insert_baselines(len(prepared))
            rowids = table.apply_prepared(prepared)
            try:
                for row in prepared:
                    self._check_foreign_keys(table, row)
            except ConstraintViolation:
                for rowid in reversed(rowids):
                    table.restore_delete(rowid)
                raise
            transaction = self._current_transaction()
            encoded = []
            if transaction is None and rowids:
                # one commit sequence for the whole batch: the batch is
                # atomic and becomes visible to snapshots as one unit
                seq = self._advance_seq()
                watched = bool(self._snapshots) or bool(self._active_tx)
                for rowid, row in zip(rowids, prepared):
                    if watched or rowid in table._history:
                        table.note_committed(rowid, None, dict(row), seq)
            for rowid, row in zip(rowids, prepared):
                if transaction is not None:
                    self._claim_row(table, rowid, before=None)
                    transaction.record(table_name, "insert", rowid, None,
                                       dict(row))
                encoded.append(
                    {"rowid": rowid, "row": encode_row(table.schema, row)}
                )
            if encoded:
                self._journal_write({
                    "op": "bulk_insert", "table": table_name,
                    "rows": encoded,
                })
            self._maybe_prune()
            return rowids

    def update(self, table_name: str, rowid: int,
               changes: Mapping[str, Any]) -> dict[str, Any]:
        """Update one row by id; returns the new row."""
        from repro.errors import ConstraintViolation

        with self._lock:
            table = self.table(table_name)
            before = table.row_by_id(rowid)
            # conflict detection happens *before* the physical mutation,
            # so a conflicting statement leaves the table untouched
            self._claim_row(table, rowid, before)
            after = table.update_row(rowid, changes)
            try:
                self._check_foreign_keys(table, after)
            except ConstraintViolation:
                table.restore_update(rowid, before)
                raise
            self._record_mutation(table_name, "update", rowid, before, after)
            self._journal_write({
                "op": "update", "table": table_name, "rowid": rowid,
                "row": encode_row(table.schema, after),
            })
            return after

    def delete(self, table_name: str, rowid: int) -> dict[str, Any]:
        """Delete one row by id; returns the deleted row."""
        with self._lock:
            table = self.table(table_name)
            before = table.row_by_id(rowid)
            self._claim_row(table, rowid, before)
            row = table.delete_row(rowid)
            self._record_mutation(table_name, "delete", rowid, row, None)
            self._journal_write(
                {"op": "delete", "table": table_name, "rowid": rowid}
            )
            return row

    def _matching_rowids(self, table_name: str,
                         predicate: Predicate) -> list[int]:
        """Row ids a predicate write touches, in rowid order: the
        planner's candidates (every row when no index serves the
        predicate), each re-checked against ``predicate``."""
        plan = plan_query(self.table(table_name), predicate)
        return [rowid for rowid, __ in matching_rows(plan, predicate)]

    def update_where(self, table_name: str, predicate: Predicate,
                     changes: Mapping[str, Any]) -> int:
        """Update every matching row; returns the number updated.

        Matching rows come from the query planner, so an indexed
        predicate visits only its candidates.  The statement is atomic:
        outside an explicit transaction the loop runs in an implicit
        one, so a conflict or constraint violation on any matching row
        rolls back the rows already touched instead of leaving a
        partially applied statement.
        """
        with self._lock:
            matching = self._matching_rowids(table_name, predicate)
            if matching and self._current_transaction() is None:
                with self.transaction():
                    for rowid in matching:
                        self.update(table_name, rowid, changes)
            else:
                for rowid in matching:
                    self.update(table_name, rowid, changes)
            return len(matching)

    def delete_where(self, table_name: str, predicate: Predicate) -> int:
        """Delete every matching row; returns the number deleted.

        Atomic like :meth:`update_where`: a mid-statement conflict
        rolls back the deletes already applied.
        """
        with self._lock:
            matching = self._matching_rowids(table_name, predicate)
            if matching and self._current_transaction() is None:
                with self.transaction():
                    for rowid in matching:
                        self.delete(table_name, rowid)
            else:
                for rowid in matching:
                    self.delete(table_name, rowid)
            return len(matching)

    def _check_foreign_keys(self, table: Table, row: Mapping[str, Any]) -> None:
        from repro.errors import ConstraintViolation

        for fk in table.schema.foreign_keys:
            value = row.get(fk.column)
            if value is None:
                continue
            parent = self.table(fk.parent_table)
            index = parent.index_on(fk.parent_column)
            if index is not None:
                found = bool(index.lookup(value))
            else:
                found = any(
                    parent_row.get(fk.parent_column) == value
                    for parent_row in parent.rows()
                )
            if not found:
                raise ConstraintViolation(
                    "FOREIGN KEY",
                    f"{table.name}.{fk.column}={value!r} has no parent in "
                    f"{fk.parent_table}.{fk.parent_column}",
                )

    # ------------------------------------------------------------------
    # keyed access: one primary-key probe, no query planner
    # ------------------------------------------------------------------

    @staticmethod
    def _probe(table: Table, key: Any) -> int | None:
        """Row id holding primary key ``key`` (row id ``key`` on a table
        without one), or ``None`` when no row holds it."""
        pk = table.schema.primary_key
        if pk is None:
            return int(key)
        index = table.index_on(pk)
        assert index is not None  # primary keys always have a hash index
        return next(iter(index.lookup(key)), None)

    def find(self, table_name: str, key: Any) -> dict[str, Any] | None:
        """Fetch one row by primary-key value, or ``None`` on a miss."""
        table = self.table(table_name)
        rowid = self._probe(table, key)
        # scan() skips a row id that holds no row: a miss on a table
        # without a primary key, or a row deleted since the probe
        return None if rowid is None else next(table.scan((rowid,)), None)

    def get(self, table_name: str, key: Any) -> dict[str, Any]:
        """Fetch one row by primary-key value."""
        row = self.find(table_name, key)
        if row is None:
            raise RowNotFoundError(f"{table_name}: no row with key {key!r}")
        return row

    def rowid_for(self, table_name: str, key: Any) -> int:
        """Row id of the row whose primary key equals ``key``."""
        rowid = self._probe(self.table(table_name), key)
        if rowid is None:
            raise RowNotFoundError(f"{table_name}: no row with key {key!r}")
        return rowid

    def upsert(self, table_name: str, row: Mapping[str, Any]) -> int:
        """Insert ``row``, or update the row holding its primary key with
        it; returns the row id.

        Atomic under the database lock: no other write lands between the
        probe and the write.  The write is an :meth:`insert` or an
        :meth:`update`, so constraints, claims, journal entries and
        version history are exactly theirs.
        """
        with self._lock:
            table = self.table(table_name)
            pk = table.schema.primary_key
            if pk is None:
                raise SchemaError(f"upsert: {table_name} has no primary key")
            rowid = self._probe(table, row[pk])
            if rowid is None:
                return self.insert(table_name, row)
            self.update(table_name, rowid, row)
            return rowid

    def exclusive(self) -> AbstractContextManager[Any]:
        """The write lock, as a context manager.

        No other thread's write lands while it is held, so a read and
        the write it decides (bump a counter column, insert the keys a
        probe found absent) make one atomic step.  Each statement inside
        still commits on its own, and readers do not wait.
        """
        return self._lock

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def query(self, table_name: str) -> Query:
        """Start a fluent :class:`~repro.storage.query.Query`.

        Reads the *latest* physical state, including this thread's own
        uncommitted writes (and, under concurrency, other sessions'
        uncommitted writes).  Use :meth:`snapshot` for isolated reads.
        """
        return Query(self.table(table_name), resolve_table=self.table)

    def count(self, table_name: str) -> int:
        return len(self.table(table_name))

    # ------------------------------------------------------------------
    # snapshots (MVCC read views)
    # ------------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Pin the current committed state and return a read view.

        Queries through the snapshot see exactly the rows committed
        before this call — never uncommitted writes, never later
        commits — and never block writers.  Release the snapshot (it is
        a context manager) so version history can be pruned.
        """
        with self._lock:
            seq = self._commit_seq
            self._snapshots[seq] = self._snapshots.get(seq, 0) + 1
            self._storage_counter("storage_snapshots_total").inc()
            return Snapshot(self, seq)

    def _release_snapshot(self, seq: int) -> None:
        with self._lock:
            count = self._snapshots.get(seq, 0) - 1
            if count > 0:
                self._snapshots[seq] = count
            else:
                self._snapshots.pop(seq, None)

    def _storage_counter(self, name: str, **labels: str):
        from repro.telemetry import get_telemetry

        return get_telemetry().metrics.counter(name, database=self.name,
                                               **labels)

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def transaction(self) -> Transaction:
        """Open a transaction for the calling thread (usable as a
        context manager).

        Each thread may hold one open transaction; opening a second one
        from the same thread raises :class:`TransactionError` (undo
        records must never interleave within a session).  Different
        threads run transactions concurrently under first-writer-wins
        conflict detection.
        """
        with self._lock:
            if self._active_tx:
                self._reap_abandoned()
            ident = threading.get_ident()
            existing = self._active_tx.get(ident)
            if existing is not None:
                raise TransactionError(
                    "a transaction is already open in this thread "
                    f"(tid={existing.tid}); commit or roll it back before "
                    "opening another"
                )
            self._tx_counter += 1
            transaction = Transaction(self, self._tx_counter,
                                      start_seq=self._commit_seq)
            self._active_tx[ident] = transaction
            return transaction

    def in_transaction(self) -> bool:
        """Whether the *calling thread* has an open transaction."""
        return self._current_transaction() is not None

    def active_transactions(self) -> int:
        """Number of open transactions across all threads."""
        return len(self._active_tx)

    def _current_transaction(self) -> Transaction | None:
        transaction = self._active_tx.get(threading.get_ident())
        if transaction is not None and not transaction.thread_alive():
            # OS thread idents are recycled: a previous pool worker died
            # with this transaction open and *we* inherited its ident.
            # Reap it — this thread's work must never be recorded into
            # the dead transaction's undo log.
            with self._lock:
                self._reap_abandoned()
            return self._active_tx.get(threading.get_ident())
        return transaction

    def _claim_row(self, table: Table, rowid: int,
                   before: dict[str, Any] | None) -> None:
        """First-writer-wins conflict detection for one row write.

        Raises :class:`TransactionConflictError` when the row carries an
        uncommitted write from another transaction, or (inside a
        transaction) was committed after the transaction began.  On the
        first claim by a transaction the committed pre-image is pinned in
        the version history so snapshot readers keep seeing it.
        """
        transaction = self._current_transaction()
        key = (table.name, rowid)
        owner = self._row_writers.get(key)
        if owner is not None and owner is not transaction \
                and not owner.thread_alive():
            # the claim belongs to a transaction whose thread died with
            # it open: reap instead of conflicting against a ghost
            self._reap_abandoned()
            owner = self._row_writers.get(key)
        if owner is not None and owner is not transaction:
            self._storage_counter("storage_transaction_conflicts_total",
                                  table=table.name, kind="write_write").inc()
            raise TransactionConflictError(
                f"row {table.name}#{rowid} has an uncommitted write from "
                f"transaction tid={owner.tid} (first writer wins)"
            )
        if transaction is None:
            if self._snapshots or self._active_tx:
                # autocommit statement with observers around: pin the
                # committed pre-image *before* the physical mutation so
                # lock-free snapshot readers never fall back to the
                # mutated physical row (the transactional path gets the
                # same pin below, at claim time)
                table.ensure_baseline(rowid, before)
            return
        if key not in transaction.claims:
            last_seq = table.last_committed_seq(rowid)
            if last_seq > transaction.start_seq:
                self._storage_counter(
                    "storage_transaction_conflicts_total",
                    table=table.name, kind="stale_write").inc()
                raise TransactionConflictError(
                    f"row {table.name}#{rowid} was committed at seq "
                    f"{last_seq}, after transaction tid={transaction.tid} "
                    f"began at seq {transaction.start_seq} (first "
                    "committer wins)"
                )
            transaction.claims.add(key)
            self._row_writers[key] = transaction
            table.ensure_baseline(rowid, before)

    def _record_mutation(self, table_name: str, op: str, rowid: int,
                         before: dict[str, Any] | None,
                         after: dict[str, Any] | None) -> None:
        transaction = self._current_transaction()
        if transaction is not None:
            transaction.record(table_name, op, rowid, before, after)
        else:
            self._note_autocommit(self._tables[table_name], rowid,
                                  before, after)

    def _advance_seq(self) -> int:
        self._commit_seq += 1
        return self._commit_seq

    def _note_autocommit(self, table: Table, rowid: int,
                         before: dict[str, Any] | None,
                         after: dict[str, Any] | None) -> None:
        """Publish an autocommitted statement to the version history.

        When nobody can observe old versions (no snapshots, no open
        transactions) and the row has no history, recording is skipped —
        the physical row is the committed truth and the single-writer
        hot path stays copy-free.
        """
        seq = self._advance_seq()
        if self._snapshots or self._active_tx or rowid in table._history:
            table.note_committed(rowid, before, after, seq)
        self._maybe_prune()

    def _commit_transaction(self, transaction: Transaction) -> None:
        with self._lock:
            if self._active_tx.get(transaction.thread_ident) \
                    is not transaction:
                raise TransactionError(
                    "finishing a transaction that is not open")
            # durability before visibility: the journal entries must be
            # on disk before any committed image becomes observable.  A
            # failed append leaves the transaction open with its claims
            # held and no versions published, so rollback() stays clean.
            # One line per commit: recovery's torn-tail rule then drops a
            # commit cut short as a whole, never a prefix of it.
            if self._journal is not None and transaction.journal_buffer:
                self._journal.append({"op": "tx",
                                      "entries": transaction.journal_buffer})
            transaction.journal_buffer = []
            seq = self._advance_seq()
            for (table_name, rowid), (before, after) \
                    in transaction.final_images().items():
                table = self._tables.get(table_name)
                if table is not None:
                    table.note_committed(rowid, before, after, seq)
            self._release_transaction(transaction)
            self._maybe_prune()

    def _rollback_transaction(self, transaction: Transaction) -> None:
        with self._lock:
            if self._active_tx.get(transaction.thread_ident) \
                    is not transaction:
                raise TransactionError(
                    "finishing a transaction that is not open")
            for record in reversed(transaction.undo_records()):
                table = self.table(record.table)
                if record.op == "insert":
                    table.restore_delete(record.rowid)
                elif record.op == "delete":
                    assert record.before is not None
                    table.restore_insert(record.rowid, record.before)
                else:  # update
                    assert record.before is not None
                    table.restore_update(record.rowid, record.before)
            transaction.journal_buffer = []
            self._release_transaction(transaction)

    def _abandon_transaction(self, transaction: Transaction) -> None:
        """Detach a transaction whose rollback failed mid-replay: drop
        its buffered journal entries and release its claims so other
        sessions are not wedged; the transaction object itself is dead
        (state ``failed``) and every further use raises."""
        with self._lock:
            transaction.journal_buffer = []
            self._release_transaction(transaction)

    def _reap_abandoned(self) -> None:
        """Roll back and release transactions whose owning thread died.

        A pool worker can exit with a transaction still open.  Left
        alone, its entry in ``_active_tx`` and its row claims would leak
        forever — wedging those rows, blocking :meth:`checkpoint` and
        pinning the prune floor — and, because OS thread idents are
        recycled, an unrelated new thread with the same ident would be
        captured by the dead transaction.  The owner can never commit,
        so an abandoned transaction is replayed backwards like a
        rollback, marked ``failed`` and released.  Callers hold the
        database lock.
        """
        for transaction in list(self._active_tx.values()):
            if transaction.thread_alive():
                continue
            self._storage_counter(
                "storage_abandoned_transactions_total").inc()
            try:
                for record in reversed(transaction.undo_records()):
                    table = self._tables.get(record.table)
                    if table is None:
                        continue
                    if record.op == "insert":
                        table.restore_delete(record.rowid)
                    elif record.op == "delete":
                        assert record.before is not None
                        table.restore_insert(record.rowid, record.before)
                    else:  # update
                        assert record.before is not None
                        table.restore_update(record.rowid, record.before)
            finally:
                transaction.journal_buffer = []
                transaction.mark_abandoned()
                self._release_transaction(transaction)

    def _release_transaction(self, transaction: Transaction) -> None:
        for key in transaction.claims:
            if self._row_writers.get(key) is transaction:
                del self._row_writers[key]
        transaction.claims = set()
        if self._active_tx.get(transaction.thread_ident) is transaction:
            del self._active_tx[transaction.thread_ident]

    def _maybe_prune(self) -> None:
        """Drop version history nobody can observe any more (runs every
        :data:`PRUNE_INTERVAL` commits)."""
        if self._commit_seq - self._last_prune_seq < PRUNE_INTERVAL:
            return
        self._last_prune_seq = self._commit_seq
        if self._active_tx:
            # a dead thread's open transaction must not pin the floor
            self._reap_abandoned()
        floors = [self._commit_seq]
        floors.extend(self._snapshots)
        floors.extend(tx.start_seq for tx in self._active_tx.values())
        floor = min(floors)
        claimed: dict[str, set[int]] = {}
        for table_name, rowid in self._row_writers:
            claimed.setdefault(table_name, set()).add(rowid)
        for name, table in self._tables.items():
            table.prune_versions(floor, keep=claimed.get(name, ()))

    def _journal_write(self, entry: dict[str, Any]) -> None:
        if self._journal is None:
            return
        transaction = self._current_transaction()
        if transaction is not None:
            # Buffer until commit: rolled-back work must never hit disk.
            transaction.journal_buffer.append(entry)
        else:
            self._journal.append(entry)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    @property
    def journal(self) -> Journal | None:
        return self._journal

    def checkpoint(self) -> Path | None:
        """Write a snapshot and truncate the journal (no-op in memory).

        Refuses to run while any transaction is open: the snapshot file
        would capture uncommitted physical rows, and a later rollback
        could not be replayed out of it.
        """
        if self._journal is None:
            return None
        with self._lock:
            if self._active_tx:
                self._reap_abandoned()
            if self._active_tx:
                raise TransactionError(
                    f"cannot checkpoint with {len(self._active_tx)} open "
                    "transaction(s)"
                )
            return self._journal.write_snapshot(self)

    @classmethod
    def recover(cls, name: str, journal_path: str | Path) -> "Database":
        """Rebuild a database from its snapshot + journal (a torn final
        journal line is dropped and cut off the file)."""
        database = cls(name)
        journal = Journal(journal_path)
        journal.load_snapshot(database)
        journal.replay(database)
        database._journal = journal
        return database

    def dump_state(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "tables": {
                name: table.dump_state()
                for name, table in self._tables.items()
            },
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        self.name = state.get("name", self.name)
        self._tables = {
            name: Table.load_state(table_state)
            for name, table_state in state.get("tables", {}).items()
        }
