"""One memo primitive: the engine's
:class:`~repro.workflow.cache.ResultCache` and the
:class:`~repro.taxonomy.catalogue.CatalogueOfLife` resolution memo are
both a :class:`Memo`, so this module alone decides how a memo bounds,
evicts, tags, counts and locks."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Generic, Hashable, Iterable, TypeVar

__all__ = ["Memo"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class Memo(Generic[K, V]):
    """A bounded, thread-safe LRU whose entries may carry tags.

    At most ``max_entries`` entries; storing past the bound evicts the
    least recently used one (a hit or a re-store refreshes recency).
    Tags such as ``record:1042`` or ``resource:catalogue`` name what an
    entry depends on, so the streaming layer turns "record X changed"
    into one :meth:`invalidate_tags` sweep.  ``hits``/``misses`` count
    lookups, ``invalidations`` the entries that sweep dropped; one lock
    guards them all.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError(f"{type(self).__name__} needs max_entries >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[K, V] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: tag -> keys carrying it / key -> its tags, kept in lockstep
        #: with ``_entries`` (eviction and clear() detach both sides)
        self._tag_keys: dict[str, set[K]] = {}
        self._key_tags: dict[K, tuple[str, ...]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({len(self)}/{self.max_entries} "
                f"entries, {self.hits} hits, {self.misses} misses)")

    def get(self, key: K) -> V | None:
        """The entry under ``key`` or ``None`` (a value is never
        ``None``); updates hit/miss stats."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: K, value: V, tags: Iterable[str] = ()) -> None:
        """Store ``value`` under ``key``, replacing its entry and tags.

        ``tags`` name the entry's upstream dependencies;
        :meth:`invalidate_tags` later drops every entry sharing one.
        """
        tagged = tuple(sorted({str(tag) for tag in tags}))
        with self._lock:
            self._detach_locked(key)
            self._entries[key] = value
            self._entries.move_to_end(key)
            if tagged:
                self._key_tags[key] = tagged
                for tag in tagged:
                    self._tag_keys.setdefault(tag, set()).add(key)
            while len(self._entries) > self.max_entries:
                evicted, _ = self._entries.popitem(last=False)
                self._detach_locked(evicted)

    def _detach_locked(self, key: K) -> None:
        """Drop ``key``'s tag bookkeeping (caller holds ``_lock``)."""
        for tag in self._key_tags.pop(key, ()):
            keys = self._tag_keys.get(tag)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._tag_keys[tag]

    def invalidate_tags(self, *tags: str) -> int:
        """Drop every entry carrying any of ``tags``; returns the number
        of entries removed.  Unknown tags are a no-op, so callers can
        invalidate speculatively (``record:<id>`` for a record that was
        never cached simply removes nothing)."""
        with self._lock:
            doomed: set[K] = set()
            for tag in tags:
                doomed.update(self._tag_keys.get(tag, ()))
            for key in doomed:
                self._entries.pop(key, None)
                self._detach_locked(key)
            removed = len(doomed)
            self.invalidations += removed
        if removed:
            from repro.telemetry import get_telemetry

            get_telemetry().metrics.counter(
                "cache_tag_invalidations_total").inc(removed)
        return removed

    def tags_of(self, key: K) -> tuple[str, ...]:
        """The tags stored with ``key`` (empty when untagged/absent)."""
        with self._lock:
            return self._key_tags.get(key, ())

    def keys_for_tag(self, tag: str) -> tuple[K, ...]:
        """The keys currently carrying ``tag``, sorted by string form."""
        with self._lock:
            return tuple(sorted(self._tag_keys.get(tag, ()), key=str))

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the memo (0.0 when unused)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict[str, Any]:
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "tags": len(self._tag_keys),
            "invalidations": self.invalidations,
        }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._tag_keys.clear()
            self._key_tags.clear()
