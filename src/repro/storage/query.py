"""Query builder and a minimal planner.

A :class:`Query` is an immutable-ish fluent pipeline over one table (plus
optional equi-joins).  Terminal methods (:meth:`Query.all`,
:meth:`Query.first`, :meth:`Query.count`, :meth:`Query.aggregate`, ...)
execute it.

The planner is deliberately simple: it asks the predicate tree for the
equality and range conditions that must hold, and intersects the row-id
sets from any matching indexes before falling back to a filtered scan.

Example::

    (db.query("recordings")
       .where((col("genus") == "Scinax") & col("collect_date").is_not_null())
       .order_by("collect_date", descending=True)
       .limit(10)
       .all())
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.errors import StorageError
from repro.storage.index import SortedIndex
from repro.storage.predicate import Predicate, TruePredicate
from repro.storage.table import Row, Table
from repro.telemetry import get_telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.planner import QueryPlan

__all__ = ["Query", "Aggregate", "matching_rows"]


class Aggregate:
    """Named aggregate over a column: ``Aggregate("avg", "frequency_khz")``.

    Supported functions: ``count`` (``column=None`` counts rows), ``sum``,
    ``avg``, ``min``, ``max``, ``count_distinct``.
    """

    FUNCTIONS = ("count", "sum", "avg", "min", "max", "count_distinct")

    def __init__(self, function: str, column: str | None = None,
                 alias: str | None = None) -> None:
        if function not in self.FUNCTIONS:
            raise StorageError(f"unknown aggregate function {function!r}")
        if function != "count" and column is None:
            raise StorageError(f"aggregate {function!r} requires a column")
        self.function = function
        self.column = column
        self.alias = alias or (
            function if column is None else f"{function}_{column}"
        )

    def compute(self, rows: Sequence[Row]) -> Any:
        if self.function == "count":
            if self.column is None:
                return len(rows)
            return sum(1 for row in rows if row.get(self.column) is not None)
        values = [
            row[self.column]
            for row in rows
            if row.get(self.column) is not None
        ]
        if self.function == "count_distinct":
            return len(set(values))
        if not values:
            return None
        try:
            if self.function == "sum":
                return sum(values)
            if self.function == "avg":
                return sum(values) / len(values)
            if self.function == "min":
                return min(values)
            return max(values)
        except TypeError as exc:
            raise StorageError(
                f"aggregate {self.function!r} over column {self.column!r} "
                f"hit mixed or non-numeric values: {exc}"
            ) from None


class Query:
    """A fluent query over ``table``.  Built by ``Database.query(name)``."""

    def __init__(self, table: Table, resolve_table: Callable[[str], Table] | None = None) -> None:
        self._table = table
        self._resolve_table = resolve_table
        self._predicate: Predicate = TruePredicate()
        self._projection: tuple[str, ...] | None = None
        self._order: list[tuple[str, bool]] = []
        self._limit: int | None = None
        self._offset: int = 0
        self._joins: list[tuple[Table, str, str, str]] = []
        self._distinct = False

    # ------------------------------------------------------------------
    # builders (each returns self for chaining)
    # ------------------------------------------------------------------

    def where(self, predicate: Predicate) -> "Query":
        """AND another predicate into the filter."""
        if isinstance(self._predicate, TruePredicate):
            self._predicate = predicate
        else:
            self._predicate = self._predicate & predicate
        return self

    def select(self, *columns: str) -> "Query":
        """Project the result rows to ``columns`` (post-join names)."""
        self._projection = columns
        return self

    def distinct(self) -> "Query":
        """Drop duplicate result rows (after projection)."""
        self._distinct = True
        return self

    def order_by(self, column: str, descending: bool = False) -> "Query":
        """Add a sort key; call repeatedly for secondary keys."""
        self._order.append((column, descending))
        return self

    def limit(self, count: int) -> "Query":
        self._limit = count
        return self

    def offset(self, count: int) -> "Query":
        self._offset = count
        return self

    def join(self, other: str | Table, left_column: str, right_column: str,
             prefix: str | None = None) -> "Query":
        """Nested-loop equi-join with ``other``.

        Joined columns are exposed as ``{prefix}.{column}`` where ``prefix``
        defaults to the joined table's name.  Inner-join semantics: rows
        without a partner are dropped.
        """
        if isinstance(other, str):
            if self._resolve_table is None:
                raise StorageError(
                    "cannot join by table name without a database context"
                )
            other = self._resolve_table(other)
        self._joins.append(
            (other, left_column, right_column, prefix or other.name)
        )
        return self

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _plan(self, include_order: bool = True) -> "QueryPlan":
        """Ask the cost-based planner for this query's access path.

        ``include_order=False`` (count/aggregate paths) suppresses the
        order/limit strategies — they would change nothing and the
        streaming executors assume a limit exists.
        """
        from repro.storage.planner import plan_query

        return plan_query(
            self._table, self._predicate,
            self._order if include_order else (),
            self._limit if include_order else None,
            self._offset,
            has_joins=bool(self._joins),
        )

    def _record_plan(self, plan: "QueryPlan") -> None:
        get_telemetry().metrics.counter(
            "storage_planner_decisions_total",
            table=self._table.name,
            path=plan.access_path,
            strategy=plan.strategy,
        ).inc()

    def _base_rows(self, plan: "QueryPlan",
                   filtered: bool = True) -> Iterator[Row]:
        predicate = self._predicate if filtered else None
        for __, row in matching_rows(plan, predicate):
            yield row

    def _joined_rows(self, plan: "QueryPlan") -> Iterator[Row]:
        if not self._joins:
            return self._base_rows(plan)
        # With joins, the predicate may reference joined columns
        # (``prefix.column``), so filtering happens after the joins.  The
        # index-derived candidate set is still used: equality/range
        # conditions reachable through conjunctions are necessary, and
        # the planner ignores conditions on columns the base table has no
        # index for (which covers all prefixed names).
        rows: Iterable[Row] = self._base_rows(plan, filtered=False)
        for other, left_column, right_column, prefix in self._joins:
            rows = self._apply_join(rows, other, left_column, right_column,
                                    prefix)
        return (row for row in rows if self._predicate(row))

    def _stream_ordered(self, plan: "QueryPlan") -> list[Row]:
        """Serve ``order_by`` + ``limit`` straight off the sorted index.

        Rows come out already sorted (ties in ascending rowid order —
        exactly what the stable sort in :meth:`_finalize` would produce),
        so execution stops as soon as ``offset + limit`` matches exist.
        Rows whose order column is NULL are not indexed; ascending order
        puts them last, so they are only scanned for when the index runs
        dry before the limit is reached.
        """
        table = self._table
        column = plan.order_column
        index = table.index_on(column)
        assert isinstance(index, SortedIndex)
        needed = max(0, self._limit or 0) + max(0, self._offset)
        rows: list[Row] = []
        scanned = 0
        if needed:
            iterator = (index.iter_descending() if plan.descending
                        else index.iter_ascending())
            for rowid in iterator:
                row = table.row_by_id(rowid)
                scanned += 1
                if self._predicate(row):
                    rows.append(row)
                    if len(rows) == needed:
                        break
            if len(rows) < needed and not plan.descending and (
                    len(index) < len(table)):
                for row in table.scan():
                    scanned += 1
                    if row.get(column) is None and self._predicate(row):
                        rows.append(row)
                        if len(rows) == needed:
                            break
        get_telemetry().metrics.counter(
            "storage_rows_scanned_total", table=table.name).inc(scanned)
        return rows[self._offset:]

    def _heap_topk(self, plan: "QueryPlan") -> list[Row]:
        """Bounded top-k via a heap instead of sorting every match.

        ``heapq.nsmallest``/``nlargest`` are documented equivalents of
        ``sorted(...)[:k]`` / ``sorted(..., reverse=True)[:k]`` including
        stability, so the result is byte-identical to the full sort.
        """
        column = plan.order_column
        needed = max(0, self._limit or 0) + max(0, self._offset)
        if not needed:
            return []
        rows = self._base_rows(plan)

        def key(row: Row) -> tuple:
            value = row.get(column)
            return (value is None, value)

        if plan.descending:
            top = heapq.nlargest(needed, rows, key=key)
        else:
            top = heapq.nsmallest(needed, rows, key=key)
        return top[self._offset:]

    @staticmethod
    def _apply_join(rows: Iterable[Row], other: Table, left_column: str,
                    right_column: str, prefix: str) -> Iterator[Row]:
        # Hash the smaller (right) side once; use its index when present.
        index = other.index_on(right_column)
        if index is None:
            partners: dict[Any, list[Row]] = {}
            for partner in other.rows():
                key = partner.get(right_column)
                if key is not None:
                    partners.setdefault(key, []).append(partner)
            lookup = lambda key: partners.get(key, ())  # noqa: E731 - tiny local closure
        else:
            lookup = lambda key: [  # noqa: E731 - tiny local closure
                other.row_by_id(rowid) for rowid in sorted(index.lookup(key))
            ]
        for row in rows:
            key = row.get(left_column)
            if key is None:
                continue
            for partner in lookup(key):
                merged = dict(row)
                for column, value in partner.items():
                    merged[f"{prefix}.{column}"] = value
                yield merged

    def _finalize(self, rows: list[Row], ordered: bool = False,
                  limited: bool = False) -> list[Row]:
        """Apply order/offset/limit/projection/distinct.

        ``ordered``/``limited`` mark steps a streaming access path already
        performed, so they are not repeated here.
        """
        if not ordered:
            for column, descending in reversed(self._order):
                rows.sort(
                    key=lambda row: (row.get(column) is None,
                                     row.get(column)),
                    reverse=descending,
                )
        if not limited:
            if self._offset:
                rows = rows[self._offset:]
            if self._limit is not None:
                rows = rows[: self._limit]
        if self._projection is not None:
            rows = [
                {column: row.get(column) for column in self._projection}
                for row in rows
            ]
        if self._distinct:
            seen: set[tuple] = set()
            unique: list[Row] = []
            for row in rows:
                key = tuple(sorted((k, _hashable(v)) for k, v in row.items()))
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            rows = unique
        return rows

    def explain(self, analyze: bool = False) -> dict[str, Any]:
        """Describe how this query would execute (planner introspection).

        Reports the conditions the planner extracted, which of them an
        index can serve, and the chosen plan: ``access_path`` (full scan,
        single index lookup, index intersection or ordered index scan),
        ``strategy`` (materialize, streaming ordered scan or heap top-k),
        ``estimated_rows``, and the planner's one-line ``reason``.
        ``analyze=True`` additionally executes the query and records
        ``actual_rows``.
        """
        plan = self._plan()
        equalities = self._predicate.equality_conditions()
        ranges = self._predicate.range_conditions()
        memberships = self._predicate.membership_conditions()
        usable_equalities = sorted(
            column for column in equalities
            if self._table.index_on(column) is not None
        )
        usable_ranges = sorted(
            column for column in ranges
            if isinstance(self._table.index_on(column), SortedIndex)
        )
        result: dict[str, Any] = {
            "table": self._table.name,
            "equality_conditions": dict(equalities),
            "range_conditions": dict(ranges),
            "membership_conditions": {
                column: list(values)
                for column, values in memberships.items()
            },
            "indexed_equalities": usable_equalities,
            "indexed_ranges": usable_ranges,
            "candidate_rows": plan.candidate_count,
            "full_scan": plan.access_path == "full_scan",
            "joins": len(self._joins),
            "filter_after_joins": bool(self._joins),
            "access_path": plan.access_path,
            "strategy": plan.strategy,
            "index_columns": plan.index_columns,
            "estimated_rows": plan.estimated_rows,
            "order_by": [list(pair) for pair in self._order],
            "limit": self._limit,
            "offset": self._offset,
            "reason": plan.reason,
        }
        if analyze:
            result["actual_rows"] = len(self.all())
        return result

    def _execute(self) -> list[Row]:
        plan = self._plan()
        self._record_plan(plan)
        if plan.strategy == "stream_ordered":
            return self._finalize(self._stream_ordered(plan),
                                  ordered=True, limited=True)
        if plan.strategy == "topk_heap":
            return self._finalize(self._heap_topk(plan),
                                  ordered=True, limited=True)
        return self._finalize(list(self._joined_rows(plan)))

    def all(self) -> list[Row]:
        """Execute and return every matching row."""
        return self._execute()

    def __iter__(self) -> Iterator[Row]:
        return iter(self.all())

    def first(self) -> Row | None:
        """Execute and return the first row or ``None``."""
        rows = self.all()
        return rows[0] if rows else None

    def exists(self) -> bool:
        return self.first() is not None

    def count(self) -> int:
        """Number of matching rows (ignores limit/offset/projection)."""
        plan = self._plan(include_order=False)
        self._record_plan(plan)
        return sum(1 for __ in self._joined_rows(plan))

    def values(self, column: str) -> list[Any]:
        """The (non-projected) values of one column, in result order."""
        return [row.get(column) for row in self.all()]

    def aggregate(self, *aggregates: Aggregate) -> dict[str, Any]:
        """Compute aggregates over the matching rows."""
        plan = self._plan(include_order=False)
        self._record_plan(plan)
        rows = list(self._joined_rows(plan))
        return {agg.alias: agg.compute(rows) for agg in aggregates}

    def group_by(self, *columns: str,
                 aggregates: Sequence[Aggregate] = ()) -> list[Row]:
        """Group matching rows and compute ``aggregates`` per group.

        Returns one row per group carrying the grouping columns plus one
        key per aggregate alias, ordered by group key.
        """
        plan = self._plan(include_order=False)
        self._record_plan(plan)
        groups: dict[tuple, list[Row]] = {}
        for row in self._joined_rows(plan):
            key = tuple(_hashable(row.get(column)) for column in columns)
            groups.setdefault(key, []).append(row)
        results: list[Row] = []
        for key in sorted(groups, key=_group_sort_key):
            rows = groups[key]
            result: Row = {
                column: rows[0].get(column) for column in columns
            }
            for agg in aggregates:
                result[agg.alias] = agg.compute(rows)
            results.append(result)
        return results


def matching_rows(plan: "QueryPlan", predicate: Predicate | None
                  ) -> Iterator[tuple[int, Row]]:
    """``(rowid, row)`` for every candidate of ``plan`` (every row on a
    scan-shaped path) that satisfies ``predicate`` (``None``: every
    candidate), in rowid order.

    The one candidate path of queries and of predicate writes
    (``Database.update_where``/``delete_where``): it counts the full
    scan or the index hits, the index selectivity and the rows scanned.
    """
    table = plan.table
    candidates = plan.rowids()
    metrics = get_telemetry().metrics
    if candidates is None:
        metrics.counter("storage_full_scans_total", table=table.name).inc()
    else:
        metrics.counter("storage_index_hits_total",
                        table=table.name).inc(len(candidates))
        total = len(table)
        if total:
            # Fraction of the table the chosen access path narrowed
            # this statement to.
            metrics.gauge("storage_index_selectivity",
                          table=table.name).set(len(candidates) / total)
    scanned = 0
    try:
        for rowid, row in table.rows_with_ids(candidates):
            scanned += 1
            if predicate is None or predicate(row):
                yield rowid, row
    finally:
        metrics.counter("storage_rows_scanned_total",
                        table=table.name).inc(scanned)


def _hashable(value: Any) -> Any:
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    return value


def _group_sort_key(key: tuple) -> tuple:
    # None sorts first, and mixed types fall back to type-name ordering so
    # sorting never raises.
    return tuple(
        (value is None, type(value).__name__, value if value is not None else 0)
        for value in key
    )
