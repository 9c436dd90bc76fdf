"""The Catalogue of Life *web service* wrapper.

The paper annotates the Catalogue processor with ``Q(reputation): 1`` and
``Q(availability): 0.9`` — "since there are several connection problems".
This wrapper simulates exactly that operational profile:

* each call succeeds with probability ``availability`` (seeded RNG, so
  runs are reproducible) and otherwise raises
  :class:`~repro.errors.ServiceUnavailableError`;
* each call has a simulated latency, surfaced through the
  ``__duration__`` convention so the workflow engine's simulated clock
  advances realistically;
* call statistics are tracked in :class:`ServiceStats` (they feed the
  measured-availability quality metric) **and** mirrored into the
  process-wide :class:`~repro.telemetry.MetricsRegistry`, where measured
  availability is an ordinary gauge the Data Quality Manager can read
  alongside every other runtime metric; each call also records a
  ``service.call`` span under whatever workflow-processor span is open.

``lookup_with_retry`` is what well-behaved clients use: it retries a
bounded number of times, which trades extra (simulated) time for
coverage — the A3 ablation quantifies that trade.
"""

from __future__ import annotations

import random

from repro.errors import ServiceUnavailableError
from repro.taxonomy.catalogue import CatalogueOfLife, NameResolution
from repro.telemetry import get_telemetry

__all__ = ["ServiceStats", "CatalogueService", "SERVICE_NAME"]

#: Label value identifying this service in the metrics registry.
SERVICE_NAME = "catalogue_of_life"


class ServiceStats:
    """Operational counters for one service instance."""

    def __init__(self) -> None:
        self.calls = 0
        self.failures = 0
        self.retries = 0
        self.simulated_seconds = 0.0

    @property
    def successes(self) -> int:
        return self.calls - self.failures

    @property
    def measured_availability(self) -> float:
        """Fraction of calls that succeeded (1.0 before any call)."""
        if self.calls == 0:
            return 1.0
        return self.successes / self.calls

    def reset(self) -> None:
        self.__init__()

    def __repr__(self) -> str:
        return (
            f"ServiceStats(calls={self.calls}, failures={self.failures}, "
            f"availability={self.measured_availability:.3f})"
        )


class CatalogueService:
    """A flaky, slow front end to a :class:`CatalogueOfLife`.

    Parameters
    ----------
    catalogue:
        The underlying authoritative catalogue.
    availability:
        Per-call success probability, the paper's 0.9 by default.
    reputation:
        Declared reputation of the source (the paper's 1.0).
    latency_seconds:
        Simulated time per successful call (a web-service round trip).
    failure_latency_seconds:
        Simulated time lost to a failed call (timeouts are slower).
    seed:
        Seed for the fault process.

    Calls are recorded in the process-wide telemetry sink.
    """

    def __init__(self, catalogue: CatalogueOfLife | None = None,
                 availability: float = 0.9,
                 reputation: float = 1.0,
                 latency_seconds: float = 0.012,
                 failure_latency_seconds: float = 0.05,
                 seed: int = 2013) -> None:
        if not 0.0 <= availability <= 1.0:
            raise ValueError("availability must be within [0, 1]")
        if not 0.0 <= reputation <= 1.0:
            raise ValueError("reputation must be within [0, 1]")
        self.catalogue = catalogue or CatalogueOfLife()
        self.availability = availability
        self.reputation = reputation
        self.latency_seconds = latency_seconds
        self.failure_latency_seconds = failure_latency_seconds
        self.stats = ServiceStats()
        self.telemetry = get_telemetry()
        self._rng = random.Random(seed)

    def _record_call(self, outcome: str, latency: float) -> None:
        """Mirror one call into the metrics registry + span tree."""
        metrics = self.telemetry.metrics
        metrics.counter("service_calls_total", service=SERVICE_NAME,
                        outcome=outcome).inc()
        metrics.histogram("service_call_seconds", service=SERVICE_NAME,
                          outcome=outcome).observe(latency)
        metrics.gauge("service_measured_availability",
                      service=SERVICE_NAME).set(
            self.stats.measured_availability)
        self.telemetry.tracer.record_span(
            "service.call", latency, service=SERVICE_NAME,
            outcome=outcome)

    def __repr__(self) -> str:
        return (
            f"CatalogueService(availability={self.availability}, "
            f"reputation={self.reputation})"
        )

    @property
    def quality(self) -> dict[str, float]:
        """The declared quality profile, as annotated in Listing 1."""
        return {
            "reputation": self.reputation,
            "availability": self.availability,
        }

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------

    def lookup(self, name: str) -> NameResolution:
        """One service call; may raise :class:`ServiceUnavailableError`."""
        self.stats.calls += 1
        if self._rng.random() >= self.availability:
            self.stats.failures += 1
            self.stats.simulated_seconds += self.failure_latency_seconds
            self._record_call("failure", self.failure_latency_seconds)
            raise ServiceUnavailableError(
                f"Catalogue of Life: connection problem looking up {name!r}"
            )
        self.stats.simulated_seconds += self.latency_seconds
        self._record_call("success", self.latency_seconds)
        return self.catalogue.resolve(name)

    def lookup_with_retry(self, name: str,
                          max_attempts: int = 3) -> NameResolution | None:
        """Retrying lookup; returns ``None`` when every attempt failed."""
        for attempt in range(max_attempts):
            try:
                return self.lookup(name)
            except ServiceUnavailableError:
                if attempt + 1 < max_attempts:
                    self.stats.retries += 1
                    self.telemetry.metrics.counter(
                        "service_retries_total", service=SERVICE_NAME,
                    ).inc()
        return None

    def lookup_many(self, names: list[str],
                    max_attempts: int = 3) -> dict[str, NameResolution | None]:
        """Batch lookup with per-name retry."""
        return {
            name: self.lookup_with_retry(name, max_attempts=max_attempts)
            for name in names
        }
