"""Secondary indexes.

Two implementations:

* :class:`HashIndex` — dict from value to the set of row ids; O(1) point
  lookups, used automatically for UNIQUE columns and equality predicates.
* :class:`SortedIndex` — bisect-maintained sorted list of ``(value, rowid)``
  pairs; supports inclusive range scans for BETWEEN / ``<`` / ``>``.

Indexes store *row ids*, never rows.  ``None`` values are not indexed
(matching SQL semantics where NULL never equals anything).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Any, Collection, Iterable, Iterator

__all__ = ["Index", "HashIndex", "SortedIndex"]

_SENTINEL = object()


class Index:
    """Abstract secondary index over one column."""

    kind = "abstract"

    def __init__(self, column: str) -> None:
        self.column = column

    def add(self, rowid: int, value: Any) -> None:
        raise NotImplementedError

    def remove(self, rowid: int, value: Any) -> None:
        raise NotImplementedError

    def lookup(self, value: Any) -> set[int]:
        """Row ids whose column equals ``value`` exactly."""
        raise NotImplementedError

    def count(self, value: Any) -> int:
        """Number of row ids equal to ``value`` without materializing the
        hit set — the planner's cost probe."""
        return len(self.lookup(value))

    def bulk_add(self, pairs: Iterable[tuple[int, Any]]) -> None:
        """Add many ``(rowid, value)`` pairs at once (bulk ingest path).

        Subclasses may override with something cheaper than repeated
        :meth:`add` calls.
        """
        for rowid, value in pairs:
            self.add(rowid, value)

    def cardinality(self) -> int:
        """Number of distinct indexed (non-``None``) values."""
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.column})"


class HashIndex(Index):
    """Equality index: value -> set of row ids."""

    kind = "hash"

    def __init__(self, column: str) -> None:
        super().__init__(column)
        self._buckets: dict[Any, set[int]] = {}

    def add(self, rowid: int, value: Any) -> None:
        if value is None:
            return
        self._buckets.setdefault(value, set()).add(rowid)

    def remove(self, rowid: int, value: Any) -> None:
        if value is None:
            return
        bucket = self._buckets.get(value)
        if bucket is not None:
            bucket.discard(rowid)
            if not bucket:
                del self._buckets[value]

    def _bucket(self, value: Any) -> Collection[int]:
        if value is None:
            return ()
        try:
            return self._buckets.get(value, ())
        except TypeError:
            # an unhashable value equals no indexed one
            return ()

    def lookup(self, value: Any) -> set[int]:
        return set(self._bucket(value))

    def count(self, value: Any) -> int:
        return len(self._bucket(value))

    def clear(self) -> None:
        self._buckets.clear()

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def cardinality(self) -> int:
        """Number of distinct indexed values."""
        return len(self._buckets)


class SortedIndex(Index):
    """Ordered index supporting inclusive range scans.

    Values must be mutually comparable; mixing incomparable types in one
    indexed column raises ``TypeError`` at insert time, which surfaces the
    schema problem early instead of at query time.
    """

    kind = "sorted"

    def __init__(self, column: str) -> None:
        super().__init__(column)
        self._entries: list[tuple[Any, int]] = []

    def add(self, rowid: int, value: Any) -> None:
        if value is None:
            return
        insort(self._entries, (value, rowid))

    def bulk_add(self, pairs: Iterable[tuple[int, Any]]) -> None:
        # One extend + sort beats n binary-insertions (O((n+m) log(n+m))
        # vs O(n·m)); this is what makes deferred index maintenance on the
        # bulk ingest path worthwhile.
        self._entries.extend(
            (value, rowid) for rowid, value in pairs if value is not None
        )
        self._entries.sort()

    def remove(self, rowid: int, value: Any) -> None:
        if value is None:
            return
        index = bisect_left(self._entries, (value, rowid))
        if index < len(self._entries) and self._entries[index] == (value, rowid):
            del self._entries[index]

    def lookup(self, value: Any) -> set[int]:
        if value is None:
            return set()
        return set(self.range(value, value))

    def range(self, low: Any, high: Any) -> Iterator[int]:
        """Yield row ids with ``low <= value <= high`` (``None`` = open end),
        in ascending value order."""
        start, stop = self._range_bounds(low, high)
        for position in range(start, stop):
            yield self._entries[position][1]

    def _range_bounds(self, low: Any, high: Any) -> tuple[int, int]:
        try:
            if low is None:
                start = 0
            else:
                start = bisect_left(self._entries, (low,))
            if high is None:
                stop = len(self._entries)
            else:
                # (high, +inf) — use a tuple longer than any entry key.
                stop = bisect_right(self._entries, (high, float("inf")))
        except TypeError:
            # a bound the indexed values cannot be ordered against
            # matches none of them, as a predicate's comparison says
            return 0, 0
        return start, stop

    def count_range(self, low: Any, high: Any) -> int:
        """Number of entries in the inclusive range, in O(log n) — the
        planner's cost probe for range conditions."""
        start, stop = self._range_bounds(low, high)
        return max(0, stop - start)

    def count(self, value: Any) -> int:
        if value is None:
            return 0
        return self.count_range(value, value)

    def iter_ascending(self) -> Iterator[int]:
        """Row ids in ascending value order (ties: ascending rowid)."""
        for __, rowid in self._entries:
            yield rowid

    def iter_descending(self) -> Iterator[int]:
        """Row ids in descending value order, but *ascending* rowid within
        runs of equal values — the order a stable reverse sort produces,
        which the ordered-scan access path must reproduce exactly."""
        entries = self._entries
        stop = len(entries)
        while stop > 0:
            value = entries[stop - 1][0]
            start = bisect_left(entries, (value,), 0, stop)
            for position in range(start, stop):
                yield entries[position][1]
            stop = start

    def cardinality(self) -> int:
        distinct = 0
        previous: Any = _SENTINEL
        for value, __ in self._entries:
            if previous is _SENTINEL or value != previous:
                distinct += 1
                previous = value
        return distinct

    def min_value(self) -> Any:
        return self._entries[0][0] if self._entries else None

    def max_value(self) -> Any:
        return self._entries[-1][0] if self._entries else None

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


def build_index(kind: str, column: str) -> Index:
    """Factory used by the table layer and journal replay."""
    if kind == "hash":
        return HashIndex(column)
    if kind == "sorted":
        return SortedIndex(column)
    raise ValueError(f"unknown index kind {kind!r}")
