"""MVCC read views: query the database as of a pinned commit.

:meth:`Database.snapshot() <repro.storage.database.Database.snapshot>`
pins the current commit sequence and returns a :class:`Snapshot`.  Every
read through it resolves rows against the committed version history
(:meth:`Table.version_at <repro.storage.table.Table.version_at>`), so:

* uncommitted transaction writes are invisible (their pre-images were
  pinned as baselines when the rows were claimed);
* commits that happen after the snapshot was taken are invisible;
* readers never block writers — a snapshot read takes the database lock
  only long enough to collect a consistent rowid set.

Snapshot tables deliberately expose **no secondary indexes**
(:meth:`SnapshotTable.index_on` always returns ``None``): live indexes
reflect the latest physical state, which may disagree with the pinned
versions, so the planner falls back to predicate-checked scans — always
correct, at full-scan cost.  Release snapshots promptly (they are
context managers) so version history can be pruned.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, TYPE_CHECKING

from repro.errors import RowNotFoundError, StorageError, UnknownTableError
from repro.storage.query import Query
from repro.storage.schema import TableSchema
from repro.storage.table import Row, Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.database import Database

__all__ = ["Snapshot", "SnapshotTable"]


class SnapshotTable:
    """Read-only view of one table as of a snapshot's commit sequence.

    Duck-types the read surface of :class:`~repro.storage.table.Table`
    (``name``/``schema``/``__len__``/``rows``/``rows_with_ids``/
    ``row_by_id``/``scan``/``index_on``), so
    :class:`~repro.storage.query.Query` and the planner run against it
    unchanged.
    """

    def __init__(self, table: Table, seq: int, lock: Any) -> None:
        # ``lock`` is the owning database's re-entrant write lock.
        self._table = table
        self._seq = seq
        self._lock = lock
        self._count: int | None = None

    @property
    def name(self) -> str:
        return self._table.name

    @property
    def schema(self) -> TableSchema:
        return self._table.schema

    def __len__(self) -> int:
        if self._count is None:
            self._count = sum(1 for _ in self.rows_with_ids())
        return self._count

    def __iter__(self) -> Iterator[Row]:
        return self.rows()

    def __repr__(self) -> str:
        return f"SnapshotTable({self.name}@{self._seq})"

    def rows_with_ids(self, rowids: Iterable[int] | None = None
                      ) -> Iterator[tuple[int, Row]]:
        """``(rowid, row)`` visible at the snapshot, in rowid order:
        every row, or the visible ones among ``rowids``."""
        if rowids is None:
            # Collect the candidate rowids under the lock (cheap), then
            # resolve versions lock-free: version chains are append-only
            # and physical row dicts are replaced rather than mutated in
            # place.
            with self._lock:
                rowids = self._table.tracked_rowids()
        for rowid in sorted(rowids):
            row = self._table.version_at(rowid, self._seq)
            if row is not None:
                yield rowid, row

    def rows(self) -> Iterator[Row]:
        for _, row in self.rows_with_ids():
            yield row

    def row_by_id(self, rowid: int) -> Row:
        row = self._table.version_at(rowid, self._seq)
        if row is None:
            raise RowNotFoundError(
                f"{self.name}: no row {rowid} at snapshot seq {self._seq}"
            )
        return row

    def scan(self, rowids: Iterable[int] | None = None) -> Iterator[Row]:
        for _, row in self.rows_with_ids(rowids):
            yield row

    # -- planner surface: no index acceleration through a snapshot ------

    def index_on(self, column: str) -> None:
        return None

    def indexes(self) -> dict[str, Any]:
        return {}

    def stats(self) -> dict[str, Any]:
        return {
            "table": self.name,
            "snapshot_seq": self._seq,
            "rows": len(self),
            "indexes": {},
        }


class Snapshot:
    """A pinned, consistent read view over the whole database."""

    def __init__(self, database: "Database", seq: int) -> None:
        self._database = database
        self._seq = seq
        self._released = False
        self._tables: dict[str, SnapshotTable] = {}

    @property
    def seq(self) -> int:
        """Commit sequence this snapshot reads as of."""
        return self._seq

    @property
    def released(self) -> bool:
        return self._released

    def table(self, name: str) -> SnapshotTable:
        if self._released:
            raise StorageError(
                f"snapshot @{self._seq} has been released")
        view = self._tables.get(name)
        if view is None:
            if name not in self._database._tables:
                raise UnknownTableError(f"no table {name!r}")
            view = SnapshotTable(self._database._tables[name], self._seq,
                                 self._database._lock)
            self._tables[name] = view
        return view

    def query(self, table_name: str) -> Query:
        """Fluent query against the pinned state (joins resolve through
        the same snapshot)."""
        return Query(self.table(table_name), resolve_table=self.table)

    def count(self, table_name: str) -> int:
        return len(self.table(table_name))

    def release(self) -> None:
        """Unpin the snapshot so version history can be pruned
        (idempotent; further reads raise)."""
        if not self._released:
            self._released = True
            self._tables = {}
            self._database._release_snapshot(self._seq)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "released" if self._released else "active"
        return f"Snapshot(seq={self._seq}, {state})"
