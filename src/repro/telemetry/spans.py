"""Hierarchical spans over any clock.

A :class:`Tracer` produces :class:`Span` records shaped like a
distributed-tracing trace, but keyed to whatever clock the caller hands
it — in this codebase that is normally the workflow engine's
:class:`~repro.workflow.engine.SimulatedClock`, which makes traces
exactly reproducible run over run (span ids are a per-tracer counter,
timestamps come from the simulation).

The expected hierarchy is ``workflow.run -> workflow.processor ->
service.call``: the engine opens the first two levels as context
managers, and leaf work that only knows its simulated duration (e.g. a
catalogue web-service call) attaches itself under the currently open
span via :meth:`Tracer.record_span`.
"""

from __future__ import annotations

import datetime as _dt
import threading
from typing import Any, Callable, Iterator, Mapping

__all__ = ["Span", "Tracer"]


class _SystemClock:
    """Fallback clock: aware UTC wall time (used only when no simulated
    clock is supplied)."""

    def now(self) -> _dt.datetime:
        return _dt.datetime.now(_dt.timezone.utc)


class Span:
    """One timed operation, possibly nested under a parent span."""

    __slots__ = ("span_id", "parent_id", "name", "attributes",
                 "started", "finished", "status", "error")

    def __init__(self, span_id: str, parent_id: str | None, name: str,
                 started: _dt.datetime,
                 attributes: Mapping[str, Any] | None = None) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attributes: dict[str, Any] = dict(attributes or {})
        self.started = started
        self.finished: _dt.datetime | None = None
        self.status = "open"  # -> "ok" | "failed"
        self.error: str | None = None

    @property
    def duration_seconds(self) -> float | None:
        if self.finished is None:
            return None
        return (self.finished - self.started).total_seconds()

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def __repr__(self) -> str:
        return (
            f"Span({self.span_id}, {self.name!r}, {self.status}, "
            f"parent={self.parent_id})"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "attributes": dict(self.attributes),
            "started": self.started.isoformat(),
            "finished": None if self.finished is None
            else self.finished.isoformat(),
            "duration_seconds": self.duration_seconds,
            "status": self.status,
            "error": self.error,
        }


class _SpanHandle:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "span", "_clock")

    def __init__(self, tracer: "Tracer", span: Span,
                 clock: Any) -> None:
        self._tracer = tracer
        self.span = span
        self._clock = clock

    def set_attribute(self, key: str, value: Any) -> None:
        self.span.set_attribute(key, value)

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, _tb) -> bool:
        self._tracer._end_span(self.span, self._clock, exc)
        return False  # never swallow


class Tracer:
    """Creates and collects spans.

    Parameters
    ----------
    clock:
        Any object with ``now() -> datetime``; per-span overrides are
        accepted too (one shared tracer can serve several engines, each
        passing its own simulated clock).
    max_spans:
        Finished spans kept; the oldest are dropped beyond this (the
        drop count is reported in :meth:`snapshot`).
    """

    def __init__(self, clock: Any | None = None,
                 max_spans: int = 10_000) -> None:
        self.clock = clock or _SystemClock()
        self.max_spans = max_spans
        self._finished: list[Span] = []
        self._stack: list[tuple[Span, Any]] = []  # (span, its clock)
        self._counter = 0
        self._dropped = 0
        # reentrant: leaf spans are recorded from engine worker threads
        # while the scheduler holds spans open on the calling thread
        self._lock = threading.RLock()

    # -- creation -----------------------------------------------------------

    def _next_id_locked(self) -> str:
        # caller holds self._lock (enforced by the LK002 naming rule)
        self._counter += 1
        return f"s{self._counter}"

    def span(self, name: str, clock: Any | None = None,
             **attributes: Any) -> _SpanHandle:
        """Open a span under the currently active one (context manager).

        The span's ``clock`` (explicit, else the enclosing span's, else
        the tracer default) is inherited by nested spans, so leaf work
        recorded inside an engine-driven span lands on the engine's
        simulated timeline without having to thread the clock around.
        """
        with self._lock:
            clock = clock or self._active_clock()
            parent = self._stack[-1][0].span_id if self._stack else None
            span = Span(self._next_id_locked(), parent, name, clock.now(),
                        attributes)
            self._stack.append((span, clock))
            return _SpanHandle(self, span, clock)

    def record_span(self, name: str, duration_seconds: float,
                    **attributes: Any) -> Span:
        """Record an already-elapsed leaf span under the active span,
        on its clock.

        Used by components that know how long their (simulated) work
        took but do not drive the clock themselves, e.g. one catalogue
        web-service call inside a processor span.
        """
        with self._lock:
            clock = self._active_clock()
            parent = self._stack[-1][0].span_id if self._stack else None
            finished = clock.now()
            started = finished - _dt.timedelta(
                seconds=max(duration_seconds, 0.0))
            span = Span(self._next_id_locked(), parent, name, started, attributes)
            span.finished = finished
            span.status = "ok"
            self._store_locked(span)
            return span

    def _active_clock(self) -> Any:
        return self._stack[-1][1] if self._stack else self.clock

    def _end_span(self, span: Span, clock: Any,
                  exc: BaseException | None) -> None:
        with self._lock:
            if self._stack and self._stack[-1][0] is span:
                self._stack.pop()
            else:  # out-of-order exit; drop it from wherever it is
                self._stack = [
                    entry for entry in self._stack if entry[0] is not span
                ]
            span.finished = clock.now()
            if exc is None:
                span.status = "ok"
            else:
                span.status = "failed"
                span.error = f"{type(exc).__name__}: {exc}"
            self._store_locked(span)

    def _store_locked(self, span: Span) -> None:
        # caller holds self._lock (enforced by the LK002 naming rule)
        self._finished.append(span)
        if len(self._finished) > self.max_spans:
            overflow = len(self._finished) - self.max_spans
            del self._finished[:overflow]
            self._dropped += overflow

    # -- queries ------------------------------------------------------------

    @property
    def active_span(self) -> Span | None:
        return self._stack[-1][0] if self._stack else None

    def finished_spans(self, name: str | None = None) -> list[Span]:
        if name is None:
            return list(self._finished)
        return [span for span in self._finished if span.name == name]

    def children_of(self, span: Span) -> Iterator[Span]:
        for candidate in self._finished:
            if candidate.parent_id == span.span_id:
                yield candidate

    def snapshot(self) -> dict[str, Any]:
        return {
            "spans": [span.to_dict() for span in self._finished],
            "open_spans": len(self._stack),
            "dropped_spans": self._dropped,
        }

    def reset(self) -> None:
        with self._lock:
            self._finished = []
            self._stack = []
            self._counter = 0
            self._dropped = 0


# A tracer-compatible callable clock adapter, used by tests and callers
# that have a plain ``() -> datetime`` function instead of a clock object.
class CallableClock:
    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[[], _dt.datetime]) -> None:
        self._fn = fn

    def now(self) -> _dt.datetime:
        return self._fn()


__all__.append("CallableClock")
