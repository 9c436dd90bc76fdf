"""Content-keyed memoization of processor invocations.

The provenance insight (Missier's lifecycle work; the RO-Crate run
profile): once a run's inputs are digested, a byte-identical invocation
can be *reused* instead of re-executed, and the trace can say so
honestly.  :func:`invocation_key` derives a deterministic digest from
(processor name, kind, implementation version, config, bound input
values) via :mod:`repro.hashing`; :class:`ResultCache` is a bounded,
thread-safe LRU from those digests to recorded outputs.

Safety rules, enforced here and by the engine:

* only JSON-plain input values are keyable — anything carrying live
  objects yields no key and is simply re-executed;
* only *successful* invocations are stored (failures always re-run);
* processors may opt out with ``config["cacheable"] = False`` (the
  species-check persister does: it writes to the database);
* entries are deep-copied on both store and fetch, so a downstream
  processor mutating a replayed value can never corrupt the cache.

A hit is spliced into the trace with a ``wasCachedFrom`` marker naming
the run/processor that actually computed the value, so the exported OPM
provenance never claims a re-execution that did not happen.

Entries may carry **tags** — opaque strings such as ``record:1042`` or
``resource:catalogue`` naming the upstream dependencies an invocation
read.  :meth:`ResultCache.invalidate_tags` drops every entry carrying
any of the given tags in one sweep, which is how the streaming layer
(:mod:`repro.streaming`) turns "record X changed" or "the catalogue
advanced" into a dirty set without re-digesting the whole collection.
"""

from __future__ import annotations

import copy
import datetime as _dt
import threading
from collections import OrderedDict
from typing import Any, Iterable, Mapping

from repro.hashing import canonical_digest

__all__ = ["CachedResult", "ResultCache", "invocation_key", "record_key",
           "resource_key"]

#: scalars whose canonical JSON form is a pure function of their value
#: (dates/datetimes serialize via ``default=str``, which is stable)
_PLAIN_SCALARS = (bool, int, float, str, _dt.date, _dt.datetime)


def _json_plain(value: Any) -> bool:
    """True when ``value`` digests stably across processes and runs —
    plain JSON data plus date/datetime scalars."""
    if value is None or isinstance(value, _PLAIN_SCALARS):
        return True
    if isinstance(value, (list, tuple)):
        return all(_json_plain(item) for item in value)
    if isinstance(value, Mapping):
        return all(
            isinstance(key, str) and _json_plain(item)
            for key, item in value.items()
        )
    return False


def invocation_key(processor: Any, implementation: Any,
                   bound: Mapping[str, Any]) -> str | None:
    """The content key of one invocation, or ``None`` when unkeyable.

    The implementation version comes from
    ``config["implementation_version"]`` when declared, else from a
    ``cache_version`` attribute on the resolved implementation, else
    ``"1"`` — bump either to invalidate stale entries after changing a
    processor's behaviour.
    """
    if not _json_plain(processor.config) or not _json_plain(bound):
        return None
    version = str(processor.config.get(
        "implementation_version",
        getattr(implementation, "cache_version", "1"),
    ))
    return canonical_digest({
        "processor": processor.name,
        "kind": processor.kind,
        "version": version,
        "config": processor.config,
        "inputs": dict(bound),
    })


def record_key(record_id: Any) -> str:
    """The tag for one collection row an invocation read."""
    return f"record:{record_id}"


def resource_key(name: str) -> str:
    """The tag for an external resource (taxonomy registry, gazetteer,
    function table) an invocation's output depends on."""
    return f"resource:{name}"


class CachedResult:
    """One memoized invocation: its output ports and where they came
    from (``run_id/processor`` of the execution that computed them)."""

    __slots__ = ("outputs", "source")

    def __init__(self, outputs: dict[str, Any], source: str) -> None:
        self.outputs = outputs
        self.source = source

    def __repr__(self) -> str:
        return f"CachedResult(from {self.source})"


class ResultCache:
    """A bounded, thread-safe LRU of :class:`CachedResult` entries.

    Share one instance across engines (or runs of one engine) to make
    warm re-runs skip identical work; ``hits``/``misses`` feed the
    ``engine_cache_*`` telemetry counters and ``repro stats`` panel.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError("ResultCache needs max_entries >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, CachedResult] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: tag -> keys carrying it / key -> its tags, kept in lockstep
        #: with ``_entries`` (eviction and clear() detach both sides)
        self._tag_keys: dict[str, set[str]] = {}
        self._key_tags: dict[str, tuple[str, ...]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"ResultCache({len(self._entries)}/{self.max_entries} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )

    def get(self, key: str) -> CachedResult | None:
        """Fetch a hit (deep copy) or ``None``; updates hit/miss stats."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return CachedResult(copy.deepcopy(entry.outputs), entry.source)

    def put(self, key: str, outputs: Mapping[str, Any],
            source: str, tags: Iterable[str] = ()) -> None:
        """Store one successful invocation.

        Values that cannot be deep-copied (they would not replay safely)
        are skipped and counted under ``cache_store_skipped_total``; only
        the failures deep-copy itself signals — ``TypeError``,
        ``copy.Error``, ``RecursionError`` — are treated as "not
        copyable".  Anything else (say a ``KeyboardInterrupt`` or a bug
        in a value's ``__deepcopy__``) propagates.

        ``tags`` name the entry's upstream dependencies;
        :meth:`invalidate_tags` later drops every entry sharing one.
        """
        try:
            stored = copy.deepcopy(dict(outputs))
        except (TypeError, copy.Error, RecursionError):
            from repro.telemetry import get_telemetry

            get_telemetry().metrics.counter(
                "cache_store_skipped_total", source=source).inc()
            return
        tagged = tuple(sorted({str(tag) for tag in tags}))
        with self._lock:
            self._detach_locked(key)
            self._entries[key] = CachedResult(stored, source)
            self._entries.move_to_end(key)
            if tagged:
                self._key_tags[key] = tagged
                for tag in tagged:
                    self._tag_keys.setdefault(tag, set()).add(key)
            while len(self._entries) > self.max_entries:
                evicted, _ = self._entries.popitem(last=False)
                self._detach_locked(evicted)

    def _detach_locked(self, key: str) -> None:
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
            doomed: set[str] = set()
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

    def tags_of(self, key: str) -> tuple[str, ...]:
        """The tags stored with ``key`` (empty when untagged/absent)."""
        with self._lock:
            return self._key_tags.get(key, ())

    def keys_for_tag(self, tag: str) -> tuple[str, ...]:
        """The invocation keys currently carrying ``tag``, sorted."""
        with self._lock:
            return tuple(sorted(self._tag_keys.get(tag, ())))

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
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
