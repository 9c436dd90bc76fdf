"""Decay-aware re-assessment scheduling.

A one-shot sweep answers "is the collection good *now*?"; the paper's
point is that the answer rots — names go out of date as the taxonomy
advances, services disappear, workflow specs decay.
:class:`RecheckScheduler` turns those decay signals into a work queue
of *subjects* (shards, workflows, collections — any string the caller
assesses) on the engine's simulated clock:

* **staleness** — a subject assessed longer than ``interval_seconds``
  ago falls due automatically;
* **availability collapse** — :meth:`observe_availability` below the
  dead-service threshold re-enqueues every tracked subject, because
  verdicts built on a dead service can no longer be reproduced;
* **workflow decay** — :meth:`scan_workflows` runs the memoized
  :class:`~repro.workflow.decay.DecayScanner` over a workflow
  repository and enqueues each decayed spec.

The scheduler never runs anything itself; consumers :meth:`pop_due`
and feed the subjects back into their curator.
"""

from __future__ import annotations

import datetime as _dt
from typing import Any

from repro.telemetry import Telemetry, get_telemetry
from repro.workflow.decay import DEAD_SERVICE_THRESHOLD, DecayScanner
from repro.workflow.engine import SimulatedClock
from repro.workflow.repository import WorkflowRepository

__all__ = ["RecheckScheduler"]

DEFAULT_INTERVAL_SECONDS = 7 * 24 * 3600.0


class RecheckScheduler:
    """Queue of subjects due for re-assessment, with decay triggers."""

    def __init__(self, clock: SimulatedClock | None = None,
                 interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
                 telemetry: Telemetry | None = None) -> None:
        if interval_seconds <= 0:
            raise ValueError(
                "RecheckScheduler needs interval_seconds > 0")
        self.clock = clock or SimulatedClock()
        self.interval_seconds = interval_seconds
        self.telemetry = telemetry or get_telemetry()
        self._assessed_at: dict[str, _dt.datetime] = {}
        #: subject -> first reason it became due (first wins: the
        #: original trigger is the interesting one to report)
        self._queue: dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def note_assessed(self, subject: str) -> None:
        """Record a completed assessment (now, on the scheduler's clock);
        clears any queued recheck."""
        self._assessed_at[subject] = self.clock.now()
        self._queue.pop(subject, None)

    def forget(self, subject: str) -> None:
        self._assessed_at.pop(subject, None)
        self._queue.pop(subject, None)

    def subjects(self) -> list[str]:
        return sorted(self._assessed_at)

    # ------------------------------------------------------------------
    # triggers
    # ------------------------------------------------------------------

    def enqueue(self, subject: str, reason: str) -> bool:
        """Mark a subject due.  Returns ``False`` when it was already
        queued (the earlier reason is kept)."""
        if subject in self._queue:
            return False
        self._queue[subject] = reason
        self.telemetry.metrics.counter(
            "streaming_rechecks_total", reason=reason).inc()
        return True

    def observe_availability(self, service: str,
                             availability: float) -> list[str]:
        """Feed a measured availability; a collapse below the
        dead-service threshold re-enqueues every tracked subject."""
        if availability >= DEAD_SERVICE_THRESHOLD:
            return []
        enqueued = []
        for subject in sorted(self._assessed_at):
            if self.enqueue(subject, "availability_collapse"):
                enqueued.append(subject)
        return enqueued

    def scan_workflows(self, repository: WorkflowRepository,
                       scanner: DecayScanner) -> list[str]:
        """Scan a workflow repository for decay (memoized: unchanged
        specs cost no loads) and enqueue decayed specs as
        ``workflow:<name>`` subjects."""
        enqueued = []
        for name, report in sorted(
                scanner.scan_repository(repository).items()):
            if report.decayed:
                subject = f"workflow:{name}"
                if self.enqueue(subject, "workflow_decay"):
                    enqueued.append(subject)
        return enqueued

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------

    def due(self) -> dict[str, str]:
        """Fold staleness (as of now, on the scheduler's clock) into
        the queue and return ``subject -> reason`` for everything
        currently due (sorted by subject)."""
        moment = self.clock.now()
        horizon = _dt.timedelta(seconds=self.interval_seconds)
        for subject in sorted(self._assessed_at):
            if (subject not in self._queue
                    and moment - self._assessed_at[subject] >= horizon):
                self.enqueue(subject, "stale")
        return dict(sorted(self._queue.items()))

    def pop_due(self) -> dict[str, str]:
        """:meth:`due` now, draining the queue."""
        ready = self.due()
        self._queue.clear()
        return ready

    def stats(self) -> dict[str, Any]:
        return {
            "tracked": len(self._assessed_at),
            "queued": len(self._queue),
            "interval_seconds": self.interval_seconds,
            "availability_threshold": DEAD_SERVICE_THRESHOLD,
        }
