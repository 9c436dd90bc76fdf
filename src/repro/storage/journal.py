"""Durability: a JSON-lines write-ahead journal plus snapshots.

Every committed mutation is appended to the journal as one JSON object per
line; a transaction's commit is one ``tx`` line holding its entries in
order, so a commit cut short by a crash is a torn final line and
recovery drops it whole, and cuts it off the file::

    {"op": "create_table", "schema": {...}}
    {"op": "insert", "table": "recordings", "rowid": 17, "row": {...}}
    {"op": "tx", "entries": [{"op": "update", ...}, {"op": "delete", ...}]}

Each append opens, writes and closes the file and never fsyncs: a
committed line survives a crash of the process, not an OS crash or a
power loss.

:func:`Journal.replay` rebuilds a :class:`~repro.storage.database.Database`
from an empty state.  Snapshots (:meth:`Journal.write_snapshot`) compact
the journal: a snapshot file plus a truncated journal replaces the full
history.

The journal encodes values through each column type's ``to_json`` hook so
dates and datetimes survive the round trip.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import JournalError
from repro.storage.schema import TableSchema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.database import Database

__all__ = ["Journal"]


class Journal:
    """Append-only journal bound to a file path."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def append(self, entry: dict[str, Any]) -> None:
        """Append one entry as one line; closing the file hands it to
        the OS (no fsync)."""
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")

    # ------------------------------------------------------------------
    # reading / replay
    # ------------------------------------------------------------------

    def entries(self) -> Iterator[dict[str, Any]]:
        """Yield journal entries in order; tolerate a torn final line
        (interrupted write) but raise on corruption in the middle."""
        for entry, __ in self._entries_with_ends():
            yield entry

    def _entries_with_ends(self) -> Iterator[tuple[dict[str, Any], int]]:
        """Each entry with the byte offset at which its line ends.

        A final line that lacks its newline or does not parse is the
        torn tail of an interrupted append and is skipped; a bad line
        anywhere else is corruption and raises.
        """
        if not self.path.exists():
            return
        with self.path.open("rb") as handle:
            lines = handle.readlines()
        end = 0
        for number, line in enumerate(lines, start=1):
            last = number == len(lines)
            if last and not line.endswith(b"\n"):
                return
            end += len(line)
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                if last:
                    return
                raise JournalError(
                    f"{self.path}: corrupt journal line {number}: {exc}"
                ) from None
            yield entry, end

    def replay(self, database: "Database") -> int:
        """Apply every journal entry to ``database``; returns the count.

        Then cut a torn tail off the file, so the next append starts a
        line of its own instead of joining the torn one (which would
        turn a dropped write into corruption in the middle).
        """
        applied = intact = 0
        for entry, intact in self._entries_with_ends():
            self._apply(database, entry)
            applied += 1
        if self.path.exists() and self.path.stat().st_size > intact:
            with self.path.open("r+b") as handle:
                handle.truncate(intact)
        return applied

    @staticmethod
    def _apply(database: "Database", entry: dict[str, Any]) -> None:
        op = entry.get("op")
        if op == "create_table":
            schema = TableSchema.from_dict(entry["schema"])
            if schema.name not in database.table_names():
                database.create_table(schema, _journal=False)
        elif op == "drop_table":
            if entry["table"] in database.table_names():
                database.drop_table(entry["table"], _journal=False)
        elif op == "insert":
            table = database.table(entry["table"])
            row = _decode_row(table.schema, entry["row"])
            table.restore_insert(entry["rowid"], row)
        elif op == "bulk_insert":
            # one batched entry from Database.bulk_load: {"rows":
            # [{"rowid": ..., "row": {...}}, ...]}
            table = database.table(entry["table"])
            for item in entry["rows"]:
                row = _decode_row(table.schema, item["row"])
                table.restore_insert(item["rowid"], row)
        elif op == "update":
            table = database.table(entry["table"])
            row = _decode_row(table.schema, entry["row"])
            table.restore_update(entry["rowid"], row)
        elif op == "delete":
            table = database.table(entry["table"])
            table.restore_delete(entry["rowid"])
        elif op == "create_index":
            table = database.table(entry["table"])
            table.create_index(entry["column"], entry.get("kind", "hash"))
        elif op == "tx":
            for inner in entry["entries"]:
                Journal._apply(database, inner)
        else:
            raise JournalError(f"unknown journal op {op!r}")

    # ------------------------------------------------------------------
    # snapshot compaction
    # ------------------------------------------------------------------

    def snapshot_path(self) -> Path:
        return self.path.with_suffix(self.path.suffix + ".snapshot")

    def write_snapshot(self, database: "Database") -> Path:
        """Write a full snapshot of ``database`` and truncate the journal."""
        snapshot = database.dump_state()
        target = self.snapshot_path()
        tmp = target.with_suffix(target.suffix + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, sort_keys=True)
        os.replace(tmp, target)
        # Truncate the journal now that its effects live in the snapshot.
        with self.path.open("w", encoding="utf-8"):
            pass
        return target

    def load_snapshot(self, database: "Database") -> bool:
        """Load the snapshot (if any) into ``database``; returns whether a
        snapshot existed.  Call before :meth:`replay`."""
        target = self.snapshot_path()
        if not target.exists():
            return False
        with target.open("r", encoding="utf-8") as handle:
            try:
                state = json.load(handle)
            except json.JSONDecodeError as exc:
                raise JournalError(
                    f"{target}: corrupt snapshot: {exc}"
                ) from None
        database.load_state(state)
        return True


def _decode_row(schema: TableSchema, encoded: dict[str, Any]) -> dict[str, Any]:
    decoded: dict[str, Any] = {}
    for column in schema.columns:
        if column.name in encoded:
            decoded[column.name] = column.type.from_json(encoded[column.name])
    return decoded


def encode_row(schema: TableSchema, row: dict[str, Any]) -> dict[str, Any]:
    """Encode ``row`` for the journal using the schema's type hooks."""
    encoded: dict[str, Any] = {}
    for column in schema.columns:
        if column.name in row:
            encoded[column.name] = column.type.to_json(row[column.name])
    return encoded
