"""The content-addressed object store (CAS).

Every archived payload — a serialized
:class:`~repro.core.preservation.PreservationPackage`, one sound
record's metadata row, a migrated derivative — is keyed by the SHA-256
of its bytes (:func:`repro.hashing.sha256_hex`, the same digest recipe
used everywhere else in the library).  Content addressing buys the
vault three properties at once:

* **deduplication** — storing the same payload twice stores one blob
  and bumps a reference count;
* **fixity for free** — the key *is* the integrity baseline, so an
  audit just re-hashes the payload and compares against its own name;
* **stable provenance identity** — OPM artifact nodes can reference
  ``cas:<digest>`` and the reference survives replica repair and store
  migration, because the name never depends on *where* the bytes live.

Blobs live in an ordinary :class:`~repro.storage.Database` table, so
the vault inherits the engine's journaling, constraints and query
machinery instead of inventing a parallel persistence layer.

For tests and drills the store exposes two *corruption-injection*
hooks, :meth:`ContentAddressedStore.corrupt` and
:meth:`ContentAddressedStore.drop` — the only ways a payload and its
digest can legally disagree.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import FixityError, ObjectMissingError
from repro.hashing import sha256_hex
from repro.storage import Column, Database, TableSchema
from repro.storage import column_types as ct

__all__ = ["ContentAddressedStore", "ObjectStat"]

_OBJECTS = "cas_objects"


class ObjectStat:
    """Metadata of one stored object (no payload)."""

    __slots__ = ("digest", "size_bytes", "media_type", "refs")

    def __init__(self, digest: str, size_bytes: int, media_type: str,
                 refs: int) -> None:
        self.digest = digest
        self.size_bytes = size_bytes
        self.media_type = media_type
        self.refs = refs

    def __repr__(self) -> str:
        return (
            f"ObjectStat({self.digest[:12]}…, {self.size_bytes} B, "
            f"{self.media_type}, refs={self.refs})"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "digest": self.digest,
            "size_bytes": self.size_bytes,
            "media_type": self.media_type,
            "refs": self.refs,
        }


class ContentAddressedStore:
    """One named replica: sha256-keyed blobs on the storage engine.

    Parameters
    ----------
    name:
        The store's identity within a replica group (e.g. ``vault-r0``).
    database:
        Backing database; a fresh in-memory one per store by default,
        so each replica models an independent storage node.  Pass a
        journaled database for durability.
    """

    def __init__(self, name: str, database: Database | None = None) -> None:
        self.name = name
        self.database = database or Database(f"cas:{name}")
        if not self.database.has_table(_OBJECTS):
            self.database.create_table(TableSchema(_OBJECTS, [
                Column("digest", ct.TEXT),
                Column("size_bytes", ct.INTEGER, nullable=False),
                Column("media_type", ct.TEXT, nullable=False),
                Column("refs", ct.INTEGER, nullable=False),
                Column("payload", ct.TEXT, nullable=False),
            ], primary_key="digest"))

    def __repr__(self) -> str:
        return f"ContentAddressedStore({self.name}, {len(self)} objects)"

    def __len__(self) -> int:
        return self.database.count(_OBJECTS)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def put(self, payload: str,
            media_type: str = "application/json") -> str:
        """Store ``payload``; returns its digest.  Re-putting an
        existing payload deduplicates (one blob, ``refs`` + 1)."""
        digest = sha256_hex(payload)
        # read refs and write refs + 1 as one step, or concurrent puts
        # of one payload lose counts
        with self.database.exclusive():
            row = self._row(digest) or {
                "digest": digest,
                "size_bytes": len(payload.encode("utf-8")),
                "media_type": media_type,
                "refs": 0,
                "payload": payload,
            }
            row["refs"] += 1
            self.database.upsert(_OBJECTS, row)
        return digest

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def _row(self, digest: str) -> dict[str, Any] | None:
        return self.database.find(_OBJECTS, digest)

    def exists(self, digest: str) -> bool:
        return self._row(digest) is not None

    def get(self, digest: str) -> str:
        """The raw payload, *without* fixity verification."""
        row = self._row(digest)
        if row is None:
            raise ObjectMissingError(
                f"{self.name}: no object {digest!r}"
            )
        return row["payload"]

    def get_verified(self, digest: str) -> str:
        """The payload, re-hashed against its name first."""
        payload = self.get(digest)
        actual = sha256_hex(payload)
        if actual != digest:
            raise FixityError(
                f"{self.name}: object {digest[:12]}… hashes to "
                f"{actual[:12]}… (bit rot or tampering)"
            )
        return payload

    def verify(self, digest: str) -> bool:
        """``True`` iff the object is present and its bytes still hash
        to its name."""
        row = self._row(digest)
        if row is None:
            return False
        return sha256_hex(row["payload"]) == digest

    def stat(self, digest: str) -> ObjectStat:
        row = self._row(digest)
        if row is None:
            raise ObjectMissingError(
                f"{self.name}: no object {digest!r}"
            )
        return ObjectStat(row["digest"], row["size_bytes"],
                          row["media_type"], row["refs"])

    def digests(self) -> list[str]:
        return sorted(self.database.query(_OBJECTS).values("digest"))

    def objects(self) -> Iterator[ObjectStat]:
        for digest in self.digests():
            yield self.stat(digest)

    def total_bytes(self) -> int:
        return sum(stat.size_bytes for stat in self.objects())

    # ------------------------------------------------------------------
    # corruption injection (tests, fire drills)
    # ------------------------------------------------------------------

    def corrupt(self, digest: str, payload: str = "\x00bitrot\x00") -> None:
        """Overwrite the stored bytes *without* changing the key —
        simulated bit rot for fixity-audit tests."""
        row = self._row(digest)
        if row is None:
            raise ObjectMissingError(
                f"{self.name}: cannot corrupt missing object {digest!r}"
            )
        rowid = self.database.rowid_for(_OBJECTS, digest)
        self.database.update(_OBJECTS, rowid, {"payload": payload})

    def drop(self, digest: str) -> None:
        """Delete a replica's copy — simulated media loss."""
        row = self._row(digest)
        if row is None:
            raise ObjectMissingError(
                f"{self.name}: cannot drop missing object {digest!r}"
            )
        self.database.delete(_OBJECTS, self.database.rowid_for(_OBJECTS,
                                                               digest))

    # ------------------------------------------------------------------
    # repair support
    # ------------------------------------------------------------------

    def restore(self, digest: str, payload: str,
                media_type: str = "application/json") -> None:
        """Overwrite-or-insert a verified copy (used by replica repair).

        Unlike :meth:`put`, the payload must hash to ``digest``.
        """
        actual = sha256_hex(payload)
        if actual != digest:
            raise FixityError(
                f"{self.name}: refusing to restore {digest[:12]}… from a "
                f"payload hashing to {actual[:12]}…"
            )
        with self.database.exclusive():
            row = self._row(digest) or {"digest": digest, "refs": 1}
            row.update(payload=payload, media_type=media_type,
                       size_bytes=len(payload.encode("utf-8")))
            self.database.upsert(_OBJECTS, row)
