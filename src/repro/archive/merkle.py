"""Merkle-tree manifests: cross-site fixity sync in O(log n).

A full cross-site sweep re-hashes every payload on every site — fine at
thousands of objects, hopeless at millions.  A :class:`MerkleManifest`
summarizes one site's holdings as a fixed-fanout hash tree over the hex
digest space:

* a **leaf entry** is ``(object digest, state hash)`` — the state hash
  is what the site last observed the stored bytes hashing to (equal to
  the object digest while the copy is healthy, different after its
  local scrubber finds rot, absent after a drop);
* entries live in buckets addressed by the first ``depth`` nibbles of
  the object digest; a bucket's hash covers its sorted entries;
* an internal node's hash covers its 16 children's hashes, so two
  manifests with equal roots hold byte-identical state and
  :meth:`MerkleManifest.diff` only descends into subtrees whose hashes
  disagree.

Comparing two 10k-object sites therefore costs one root comparison when
they agree, and ``O(depth · divergent buckets)`` hash comparisons when
they don't — the win measured by ``benchmarks/test_infra_federation.py``.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import ArchiveError
from repro.hashing import sha256_hex

__all__ = ["MerkleManifest", "ManifestDiff", "DEFAULT_DEPTH"]

_FANOUT = 16
#: default tree depth (nibbles of the digest used for bucket addressing)
DEFAULT_DEPTH = 3

_HEX = "0123456789abcdef"
_EMPTY_HASH = sha256_hex(b"")


class ManifestDiff:
    """What two manifests disagree on.

    ``prefixes`` are the diverging bucket prefixes the walk descended
    into (the "changed subtrees"); ``digests`` the object digests whose
    state differs — present on one side only, or present on both with
    different state hashes.
    """

    __slots__ = ("prefixes", "digests", "nodes_compared")

    def __init__(self, prefixes: list[str], digests: list[str],
                 nodes_compared: int) -> None:
        self.prefixes = prefixes
        self.digests = digests
        self.nodes_compared = nodes_compared

    def __bool__(self) -> bool:
        return bool(self.digests)

    def __len__(self) -> int:
        return len(self.digests)

    def __repr__(self) -> str:
        return (
            f"ManifestDiff({len(self.digests)} digest(s) across "
            f"{len(self.prefixes)} bucket(s), "
            f"{self.nodes_compared} nodes compared)"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "prefixes": list(self.prefixes),
            "digests": list(self.digests),
            "nodes_compared": self.nodes_compared,
        }


class MerkleManifest:
    """A hash tree over ``{object digest: state hash}`` entries.

    Mutations (:meth:`set`, :meth:`remove`) invalidate only the hashes
    on the touched bucket's path, so keeping a manifest current while a
    site takes writes is O(depth) per operation, not O(n).
    """

    def __init__(self, entries: Mapping[str, str] | None = None,
                 depth: int = DEFAULT_DEPTH) -> None:
        if not 1 <= depth <= 8:
            raise ArchiveError(f"manifest depth {depth} outside [1, 8]")
        self.depth = depth
        self._entries: dict[str, str] = {}
        #: bucket prefix -> {digest: state} (so rehashing one bucket
        #: never scans the whole manifest)
        self._buckets: dict[str, dict[str, str]] = {}
        #: bucket prefix -> sorted-entries hash (lazily rebuilt)
        self._bucket_hashes: dict[str, str] = {}
        self._dirty_buckets: set[str] = set()
        #: internal-node hash cache, invalidated along the touched path
        self._node_cache: dict[str, str] = {}
        self._root: str | None = None
        for digest, state in (entries or {}).items():
            self.set(digest, state)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    def __repr__(self) -> str:
        return (
            f"MerkleManifest({len(self._entries)} entries, "
            f"depth={self.depth}, root={self.root[:12]}…)"
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def _bucket_of(self, digest: str) -> str:
        prefix = digest[:self.depth].lower()
        if len(prefix) < self.depth or any(c not in _HEX for c in prefix):
            raise ArchiveError(
                f"{digest!r} is not a hex digest of at least "
                f"{self.depth} nibbles"
            )
        return prefix

    def _touch(self, bucket: str) -> None:
        self._dirty_buckets.add(bucket)
        for cut in range(self.depth):
            self._node_cache.pop(bucket[:cut], None)
        self._root = None

    def set(self, digest: str, state: str) -> None:
        """Record (or update) one object's observed state hash."""
        bucket = self._bucket_of(digest)
        if self._entries.get(digest) != state:
            self._entries[digest] = state
            self._buckets.setdefault(bucket, {})[digest] = state
            self._touch(bucket)

    def remove(self, digest: str) -> None:
        """Forget an object (after a drop); absent digests are a no-op."""
        if digest in self._entries:
            del self._entries[digest]
            bucket = self._bucket_of(digest)
            self._buckets.get(bucket, {}).pop(digest, None)
            self._touch(bucket)

    def state(self, digest: str) -> str | None:
        return self._entries.get(digest)

    def entries(self) -> dict[str, str]:
        return dict(self._entries)

    # ------------------------------------------------------------------
    # hashing
    # ------------------------------------------------------------------

    def _bucket_entries(self, bucket: str) -> list[tuple[str, str]]:
        return sorted(self._buckets.get(bucket, {}).items())

    def _bucket_hash(self, bucket: str) -> str:
        if bucket in self._dirty_buckets or bucket not in self._bucket_hashes:
            entries = self._bucket_entries(bucket)
            if entries:
                blob = "\n".join(f"{d}={s}" for d, s in entries)
                self._bucket_hashes[bucket] = sha256_hex(blob)
            else:
                self._bucket_hashes.pop(bucket, None)
            self._dirty_buckets.discard(bucket)
        return self._bucket_hashes.get(bucket, _EMPTY_HASH)

    def node_hash(self, prefix: str) -> str:
        """The subtree hash at ``prefix`` (``""`` = the root)."""
        if len(prefix) >= self.depth:
            return self._bucket_hash(prefix[:self.depth])
        cached = self._node_cache.get(prefix)
        if cached is not None:
            return cached
        children = [self.node_hash(prefix + nibble) for nibble in _HEX]
        if all(child == _EMPTY_HASH for child in children):
            value = _EMPTY_HASH
        else:
            value = sha256_hex("|".join(children))
        self._node_cache[prefix] = value
        return value

    @property
    def root(self) -> str:
        """The manifest's summary hash: equal roots ⇒ equal state."""
        if self._root is None:
            for bucket in list(self._dirty_buckets):
                self._bucket_hash(bucket)
            self._root = self.node_hash("")
        return self._root

    # ------------------------------------------------------------------
    # diffing
    # ------------------------------------------------------------------

    def diff(self, other: "MerkleManifest") -> ManifestDiff:
        """Digests whose state differs between the two manifests,
        found by descending only into diverging subtrees."""
        if self.depth != other.depth:
            raise ArchiveError(
                f"cannot diff manifests of depth {self.depth} and "
                f"{other.depth}"
            )
        prefixes: list[str] = []
        digests: list[str] = []
        compared = 0

        def walk(prefix: str) -> None:
            nonlocal compared
            compared += 1
            if self.node_hash(prefix) == other.node_hash(prefix):
                return
            if len(prefix) >= self.depth:
                prefixes.append(prefix)
                mine = dict(self._bucket_entries(prefix))
                theirs = dict(other._bucket_entries(prefix))
                for digest in sorted(set(mine) | set(theirs)):
                    if mine.get(digest) != theirs.get(digest):
                        digests.append(digest)
                return
            for nibble in _HEX:
                walk(prefix + nibble)

        walk("")
        return ManifestDiff(prefixes, digests, compared)

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "depth": self.depth,
            "root": self.root,
            "entries": dict(sorted(self._entries.items())),
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "MerkleManifest":
        return cls(dict(document.get("entries", {})),
                   depth=int(document.get("depth", DEFAULT_DEPTH)))
