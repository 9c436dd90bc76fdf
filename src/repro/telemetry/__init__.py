"""Unified observability: metrics, spans and event tracing.

The paper's Data Quality Manager derives scores from *operational
evidence* — the Catalogue of Life processor carries
``Q(availability): 0.9`` precisely because real runs fail.  This package
is where that evidence accumulates, dependency-free and deterministic:

* :class:`~repro.telemetry.metrics.MetricsRegistry` — labeled counters,
  gauges and histograms (processor durations, storage scan/index
  counters, service availability);
* :class:`~repro.telemetry.spans.Tracer` — hierarchical spans
  (``workflow.run -> workflow.processor -> service.call``) keyed to the
  engine's simulated clock, so traces are bit-for-bit reproducible;
* :class:`~repro.telemetry.events.EventLog` — a bounded structured
  record of engine listener events.

The three are bundled by :class:`Telemetry`; a process-wide default
instance (:func:`get_telemetry`) is what the instrumented subsystems
write into unless handed an explicit one.  ``Telemetry.snapshot()``
produces plain data, ``render_report`` the ``repro stats`` panel, and
:func:`~repro.telemetry.report.quality_signals` the bridge by which the
quality manager consumes measured availability as an external source.
"""

from __future__ import annotations

from typing import Any

from repro.telemetry.events import EventLog
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Window,
)
from repro.telemetry.report import quality_signals, render_report
from repro.telemetry.spans import CallableClock, Span, Tracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "Window",
    "Span", "Tracer", "CallableClock", "EventLog",
    "Telemetry", "get_telemetry", "set_telemetry",
    "render_report", "quality_signals", "snapshot",
]


class Telemetry:
    """One registry + one tracer + one event log, snapshot together.

    The tracer's default clock is wall time; instrumented engines pass
    their simulated clock per span."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.events = EventLog()

    def attach(self, engine: Any) -> None:
        """Subscribe the event log to a workflow engine."""
        self.events.attach(engine)

    def snapshot(self) -> dict[str, Any]:
        """Plain-data view of everything observed so far."""
        return {
            "metrics": self.metrics.snapshot(),
            "spans": self.tracer.snapshot(),
            "events": self.events.snapshot(),
        }

    def render_report(self) -> str:
        return render_report(self.snapshot())

    def reset(self) -> None:
        """Zero metrics and clear spans/events, in place: instrument
        handles cached by instrumented components stay valid."""
        self.metrics.reset()
        self.tracer.reset()
        self.events.reset()


#: Process-wide default sink.  Replaceable for isolation (tests), but
#: ``reset()`` is usually enough and keeps cached handles working.
_default = Telemetry()


def get_telemetry() -> Telemetry:
    return _default


def set_telemetry(telemetry: Telemetry) -> Telemetry:
    global _default
    _default = telemetry
    return telemetry


def snapshot() -> dict[str, Any]:
    """Convenience: snapshot the default instance."""
    return _default.snapshot()
