"""The table: row storage, constraint enforcement and index maintenance.

Rows are stored as plain dicts keyed by a hidden monotonically increasing
row id.  All mutation goes through :meth:`Table.insert`,
:meth:`Table.update` and :meth:`Table.delete`, which

* apply column defaults and type coercion,
* enforce NOT NULL / UNIQUE / CHECK constraints,
* keep secondary indexes in sync.

Undo for transactions is recorded one layer up, by the database.

Rows handed back to callers are *copies*; mutating them never corrupts the
table (the paper's "original collection unchanged" requirement depends on
this).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro.errors import (
    ConstraintViolation,
    RowNotFoundError,
    UnknownColumnError,
)
from repro.storage.index import HashIndex, Index, SortedIndex, build_index
from repro.storage.schema import TableSchema
from repro.telemetry import get_telemetry
from repro.telemetry.metrics import Counter

__all__ = ["Table"]

Row = dict[str, Any]


class Table:
    """One table: rows + indexes + constraints.

    Not usually constructed directly — use
    :meth:`repro.storage.database.Database.create_table`.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: dict[int, Row] = {}
        self._next_rowid = 1
        self._indexes: dict[str, Index] = {}
        # MVCC: committed row images keyed by rowid.  Each entry is an
        # append-only list of ``(commit_seq, image-or-None)`` pairs
        # (``None`` = deleted/not yet inserted at that point).  Absent
        # rowids are "clean": the physical row *is* the committed image.
        # The database layer appends at commit time and prunes versions
        # no live snapshot or transaction can still observe.
        self._history: dict[int, list[tuple[int, Row | None]]] = {}
        # UNIQUE columns (incl. the primary key) get a hash index up front
        # so uniqueness checks stay O(1).
        for column in schema.columns:
            if column.unique:
                self._indexes[column.name] = HashIndex(column.name)

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return self.rows()

    def __repr__(self) -> str:
        return f"Table({self.name}, {len(self)} rows)"

    def rows(self) -> Iterator[Row]:
        """Yield a *copy* of every row, in insertion (rowid) order."""
        for rowid in sorted(self._rows):
            yield dict(self._rows[rowid])

    def rows_with_ids(self, rowids: Iterable[int] | None = None
                      ) -> Iterator[tuple[int, Row]]:
        """Yield ``(rowid, copy)`` in rowid order: every row, or the rows
        among ``rowids`` (ids that hold no row are skipped)."""
        for rowid in sorted(self._rows if rowids is None else rowids):
            row = self._rows.get(rowid)
            if row is not None:
                yield rowid, dict(row)

    def row_by_id(self, rowid: int) -> Row:
        try:
            return dict(self._rows[rowid])
        except KeyError:
            raise RowNotFoundError(
                f"table {self.name!r} has no row id {rowid}"
            ) from None

    def _metric(self, name: str, **labels: str) -> Counter:
        """Counter in the process-wide registry, labeled by table."""
        return get_telemetry().metrics.counter(name, table=self.name,
                                               **labels)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def _normalize(self, values: Mapping[str, Any], partial: bool = False) -> Row:
        """Validate and coerce ``values`` against the schema.

        ``partial=True`` (updates) skips defaulting and allows a subset of
        columns; ``partial=False`` (inserts) applies defaults and requires
        all NOT NULL columns to end up non-``None``.
        """
        for key in values:
            if not self.schema.has_column(key):
                raise UnknownColumnError(
                    f"table {self.name!r} has no column {key!r}"
                )
        normalized: Row = {}
        columns = (
            [self.schema.column(k) for k in values] if partial else self.schema.columns
        )
        for column in columns:
            if column.name in values:
                raw = values[column.name]
            elif partial:
                continue
            else:
                raw = column.resolve_default()
            if raw is not None:
                try:
                    raw = column.type.coerce(raw)
                except (ValueError, TypeError) as exc:
                    raise ConstraintViolation(
                        "TYPE",
                        f"{self.name}.{column.name}: {exc}",
                    ) from None
            if raw is None and not column.nullable:
                raise ConstraintViolation(
                    "NOT NULL", f"{self.name}.{column.name} must not be null"
                )
            if raw is not None and column.check is not None and not column.check(raw):
                raise ConstraintViolation(
                    "CHECK",
                    f"{self.name}.{column.name} rejected value {raw!r}",
                )
            normalized[column.name] = raw
        return normalized

    def _check_unique(self, row: Row, exclude_rowid: int | None = None) -> None:
        for column in self.schema.columns:
            if not column.unique:
                continue
            value = row.get(column.name)
            if value is None:
                continue
            hits = self._indexes[column.name].lookup(value)
            hits.discard(exclude_rowid if exclude_rowid is not None else -1)
            if hits:
                raise ConstraintViolation(
                    "UNIQUE",
                    f"{self.name}.{column.name} already contains {value!r}",
                )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def insert(self, values: Mapping[str, Any]) -> int:
        """Insert one row; returns its row id."""
        row = self._normalize(values)
        self._check_unique(row)
        rowid = self._next_rowid
        self._next_rowid += 1
        self._rows[rowid] = row
        for index in self._indexes.values():
            index.add(rowid, row.get(index.column))
        self._metric("storage_rows_inserted_total").inc()
        return rowid

    # ------------------------------------------------------------------
    # bulk write path
    # ------------------------------------------------------------------

    def prepare_rows(self, rows: Iterable[Mapping[str, Any]]) -> list[Row]:
        """Validate a batch for :meth:`apply_prepared`.

        Normalizes every row and runs the UNIQUE checks *batch-wise*: one
        index probe against existing rows plus an intra-batch seen-set,
        instead of per-row index round trips.  Raises before anything is
        mutated, so a failing batch leaves the table untouched.
        """
        prepared = [self._normalize(values) for values in rows]
        for column in self.schema.columns:
            if not column.unique:
                continue
            index = self._indexes[column.name]
            seen_in_batch: set[Any] = set()
            for row in prepared:
                value = row.get(column.name)
                if value is None:
                    continue
                if value in seen_in_batch or index.count(value):
                    raise ConstraintViolation(
                        "UNIQUE",
                        f"{self.name}.{column.name} already contains "
                        f"{value!r}",
                    )
                seen_in_batch.add(value)
        return prepared

    def apply_prepared(self, prepared: list[Row]) -> list[int]:
        """Write rows validated by :meth:`prepare_rows`.

        Index maintenance is deferred: each index gets one
        :meth:`~repro.storage.index.Index.bulk_add` call (a sorted index
        does one extend + sort instead of n binary insertions), and the
        insert counter is bumped once for the whole batch.
        """
        first_rowid = self._next_rowid
        rowids = list(range(first_rowid, first_rowid + len(prepared)))
        self._next_rowid = first_rowid + len(prepared)
        for rowid, row in zip(rowids, prepared):
            self._rows[rowid] = row
        for index in self._indexes.values():
            column = index.column
            index.bulk_add(
                (rowid, row.get(column))
                for rowid, row in zip(rowids, prepared)
            )
        if prepared:
            self._metric("storage_rows_inserted_total").inc(len(prepared))
            self._metric("storage_bulk_batches_total").inc()
        return rowids

    def update_row(self, rowid: int, changes: Mapping[str, Any]) -> Row:
        """Apply ``changes`` to the row ``rowid``; returns the new row."""
        if rowid not in self._rows:
            raise RowNotFoundError(
                f"table {self.name!r} has no row id {rowid}"
            )
        normalized = self._normalize(changes, partial=True)
        before = dict(self._rows[rowid])
        after = dict(before)
        after.update(normalized)
        self._check_unique(after, exclude_rowid=rowid)
        for index in self._indexes.values():
            old = before.get(index.column)
            new = after.get(index.column)
            if old != new:
                index.remove(rowid, old)
                index.add(rowid, new)
        self._rows[rowid] = after
        self._metric("storage_rows_updated_total").inc()
        return dict(after)

    def delete_row(self, rowid: int) -> Row:
        """Delete row ``rowid``; returns the deleted row."""
        if rowid not in self._rows:
            raise RowNotFoundError(
                f"table {self.name!r} has no row id {rowid}"
            )
        row = self._rows.pop(rowid)
        for index in self._indexes.values():
            index.remove(rowid, row.get(index.column))
        self._metric("storage_rows_deleted_total").inc()
        return dict(row)

    # ------------------------------------------------------------------
    # raw restore (transaction rollback / journal replay)
    # ------------------------------------------------------------------

    def restore_insert(self, rowid: int, row: Row) -> None:
        """Re-insert an exact row at an exact id, bypassing defaults (the
        row was already validated when first written)."""
        if rowid in self._rows:
            raise ConstraintViolation(
                "ROWID", f"{self.name}: row id {rowid} already present"
            )
        self._rows[rowid] = dict(row)
        self._next_rowid = max(self._next_rowid, rowid + 1)
        for index in self._indexes.values():
            index.add(rowid, row.get(index.column))

    def restore_delete(self, rowid: int) -> None:
        row = self._rows.pop(rowid, None)
        if row is not None:
            for index in self._indexes.values():
                index.remove(rowid, row.get(index.column))

    def restore_update(self, rowid: int, row: Row) -> None:
        before = self._rows.get(rowid)
        if before is None:
            self.restore_insert(rowid, row)
            return
        for index in self._indexes.values():
            old = before.get(index.column)
            new = row.get(index.column)
            if old != new:
                index.remove(rowid, old)
                index.add(rowid, new)
        self._rows[rowid] = dict(row)

    # ------------------------------------------------------------------
    # MVCC version history (driven by the database layer)
    # ------------------------------------------------------------------

    def last_committed_seq(self, rowid: int) -> int:
        """Commit sequence of the last committed write to ``rowid``
        (0 when the row has no tracked history)."""
        entries = self._history.get(rowid)
        return entries[-1][0] if entries else 0

    def ensure_baseline(self, rowid: int, before: Row | None) -> None:
        """Pin the pre-image of ``rowid`` before an uncommitted write
        touches the physical row, so snapshot readers keep seeing the
        committed state while the writing transaction is in flight."""
        if rowid not in self._history:
            self._history[rowid] = [
                (0, dict(before) if before is not None else None)
            ]

    def pin_insert_baselines(self, count: int = 1) -> None:
        """Pin "row absent" baselines for the next ``count`` rowids an
        insert will allocate, *before* the physical rows land: lock-free
        snapshot readers must resolve a brand-new rowid to "not visible
        yet" rather than fall back to the freshly inserted physical row.
        Harmless if the insert then fails validation — a ``(0, None)``
        baseline describes a row that does not exist, and pruning drops
        it."""
        for offset in range(count):
            self.ensure_baseline(self._next_rowid + offset, None)

    def note_committed(self, rowid: int, before: Row | None,
                       after: Row | None, seq: int) -> None:
        """Append the committed image of ``rowid`` at commit ``seq``."""
        entries = self._history.get(rowid)
        if entries is None:
            entries = [(0, dict(before) if before is not None else None)]
            self._history[rowid] = entries
        entries.append((seq, dict(after) if after is not None else None))

    def version_at(self, rowid: int, seq: int) -> Row | None:
        """The committed image of ``rowid`` as of commit ``seq`` (a
        copy), or ``None`` when the row was not visible then.

        Safe to call without the database lock.  Writers always pin a
        baseline into ``_history`` *before* mutating the physical row,
        so the clean-row fallback re-checks the history after reading
        the physical image (seqlock-style): if no pin has appeared by
        then, the physical read happened before any mutation and is the
        committed image; if one has, the row is resolved through the
        version chain instead.
        """
        entries = self._history.get(rowid)
        if entries is None:
            # clean row: the physical image is the committed image
            row = self._rows.get(rowid)
            entries = self._history.get(rowid)
            if entries is None:
                return dict(row) if row is not None else None
        for version_seq, image in reversed(entries):
            if version_seq <= seq:
                return dict(image) if image is not None else None
        return None

    def tracked_rowids(self) -> set[int]:
        """Every rowid a snapshot reader must consider: physically
        present rows plus rows with version history (covers rows deleted
        after a snapshot was taken)."""
        return set(self._rows) | set(self._history)

    def prune_versions(self, floor: int,
                       keep: Iterable[int] = ()) -> int:
        """Drop version history no reader at or after commit ``floor``
        can observe; rowids in ``keep`` (uncommitted writes) are pinned.
        Returns the number of discarded version entries."""
        pinned = set(keep)
        dropped = 0
        for rowid in list(self._history):
            if rowid in pinned:
                continue
            entries = self._history[rowid]
            # index of the last entry at or before the floor: everything
            # older is unobservable and the entry itself becomes the new
            # baseline
            base = None
            for position in range(len(entries) - 1, -1, -1):
                if entries[position][0] <= floor:
                    base = position
                    break
            if base is None:
                continue
            if base == len(entries) - 1:
                # single live version: the physical row carries it, so
                # the whole chain can go (a clean row has no history)
                dropped += len(entries)
                del self._history[rowid]
            elif base > 0:
                dropped += base
                self._history[rowid] = entries[base:]
        return dropped

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------

    def create_index(self, column: str, kind: str = "hash") -> Index:
        """Create (or return the existing) secondary index on ``column``.

        ``kind`` is ``"hash"`` for equality or ``"sorted"`` for ranges.
        An existing index of a different kind is replaced only when
        upgrading hash -> sorted would lose nothing; otherwise kept.
        Concretely: a sorted index already serves equality lookups, so a
        ``"hash"`` request over it returns the sorted index unchanged
        instead of silently dropping range-query support.
        """
        self.schema.column(column)  # raises on unknown column
        existing = self._indexes.get(column)
        if existing is not None:
            if existing.kind == kind:
                return existing
            if existing.kind == "sorted" and kind == "hash":
                return existing
        index = build_index(kind, column)
        for rowid, row in self._rows.items():
            index.add(rowid, row.get(column))
        self._indexes[column] = index
        self._metric("storage_indexes_built_total", kind=kind).inc()
        return index

    def index_on(self, column: str) -> Index | None:
        return self._indexes.get(column)

    def indexes(self) -> dict[str, Index]:
        return dict(self._indexes)

    def stats(self) -> dict[str, Any]:
        """Cardinality statistics the cost-based planner reasons over:
        row count plus per-index entry count and distinct-value count."""
        return {
            "rows": len(self._rows),
            "indexes": {
                column: {
                    "kind": index.kind,
                    "entries": len(index),  # type: ignore[arg-type] - every index is sized
                    "cardinality": index.cardinality(),
                }
                for column, index in sorted(self._indexes.items())
            },
        }

    # ------------------------------------------------------------------
    # scanning helpers used by the query layer
    # ------------------------------------------------------------------

    def candidate_rowids(
        self,
        equalities: Mapping[str, Any],
        ranges: Mapping[str, tuple[Any, Any]],
    ) -> set[int] | None:
        """Return a candidate row-id set using available indexes, or
        ``None`` when no index applies (full scan needed)."""
        candidate: set[int] | None = None
        for column, value in equalities.items():
            index = self._indexes.get(column)
            if index is None:
                continue
            hits = index.lookup(value)
            candidate = hits if candidate is None else candidate & hits
            if not candidate:
                return set()
        for column, (low, high) in ranges.items():
            index = self._indexes.get(column)
            if not isinstance(index, SortedIndex):
                continue
            hits = set(index.range(low, high))
            candidate = hits if candidate is None else candidate & hits
            if not candidate:
                return set()
        return candidate

    def scan(self, rowids: Iterable[int] | None = None) -> Iterator[Row]:
        """Yield copies of rows; restricted to ``rowids`` when given."""
        for __, row in self.rows_with_ids(rowids):
            yield row

    # ------------------------------------------------------------------
    # bulk state (snapshots)
    # ------------------------------------------------------------------

    def dump_state(self) -> dict[str, Any]:
        """Serialize rows + index descriptors for a snapshot."""
        json_rows = {}
        for rowid, row in self._rows.items():
            encoded = {}
            for column in self.schema.columns:
                encoded[column.name] = column.type.to_json(row.get(column.name))
            json_rows[str(rowid)] = encoded
        return {
            "schema": self.schema.to_dict(),
            "next_rowid": self._next_rowid,
            "rows": json_rows,
            "indexes": [
                {"column": index.column, "kind": index.kind}
                for index in self._indexes.values()
            ],
        }

    @classmethod
    def load_state(cls, state: Mapping[str, Any]) -> "Table":
        schema = TableSchema.from_dict(state["schema"])
        table = cls(schema)
        for descriptor in state.get("indexes", ()):
            table.create_index(descriptor["column"], descriptor["kind"])
        for rowid_text, encoded in state.get("rows", {}).items():
            decoded = {}
            for column in schema.columns:
                decoded[column.name] = column.type.from_json(
                    encoded.get(column.name)
                )
            table.restore_insert(int(rowid_text), decoded)
        table._next_rowid = max(
            table._next_rowid, int(state.get("next_rowid", 1))
        )
        return table
