"""The request-level façade: one door into storage + vault.

:class:`PreservationService` is what ROADMAP item 1 calls the
multi-tenant service layer: tenants submit query/ingest/audit/vault
operations as :class:`~repro.service.requests.ServiceRequest` envelopes
and always get a :class:`~repro.service.requests.ServiceResponse` back —
overload, quota exhaustion, write conflicts and handler failures are
reported as statuses, never as exceptions escaping :meth:`submit`.

Per request the façade:

1. charges the tenant's quota (fixed window; reject → ``rejected``);
2. takes an admission slot (bounded in-flight + bounded queue;
   reject/timeout → ``rejected``);
3. executes the handler — queries run against an MVCC snapshot
   (:meth:`Database.snapshot <repro.storage.database.Database.snapshot>`)
   so they never block or observe writers; ingests run in a transaction
   and retry up to ``conflict_retries`` times when they lose the
   first-writer-wins race; audits sweep (and optionally repair) the
   preservation vault;
4. records ``service_*`` telemetry: request counts by operation and
   outcome, a latency histogram, conflict-retry and rejection counters.

``ServiceConfig.simulated_io_seconds`` models the per-request network/
disk wait of a real deployment (the in-process engine has none); the
load benchmark uses it so concurrency wins show up as they would in
production, where requests overlap on I/O.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.errors import (
    AdmissionRejectedError,
    QuotaExceededError,
    ReproError,
    ServiceError,
    TransactionConflictError,
)
from repro.service.admission import AdmissionController
from repro.service.quotas import QuotaRegistry, TenantQuota
from repro.service.requests import ServiceRequest, ServiceResponse
from repro.storage.database import Database
from repro.telemetry import Telemetry, get_telemetry

__all__ = ["ServiceConfig", "PreservationService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for admission control, retries and quotas."""

    #: requests executing at once before arrivals queue
    max_in_flight: int = 8
    #: waiters tolerated before hard rejection
    max_queue_depth: int = 16
    #: longest a queued request waits for a slot
    queue_timeout_seconds: float = 5.0
    #: attempts for an ingest that loses the first-writer-wins race
    conflict_retries: int = 3
    #: applied to tenants without an explicit quota (None = unlimited)
    default_quota: TenantQuota | None = None
    #: per-request sleep modeling external I/O (0 = pure in-process)
    simulated_io_seconds: float = 0.0


class PreservationService:
    """Multi-tenant façade over a database and optional vault."""

    def __init__(self, database: Database, *, vault: Any | None = None,
                 config: ServiceConfig | None = None,
                 telemetry: Telemetry | None = None) -> None:
        self._database = database
        self._vault = vault
        self.config = config or ServiceConfig()
        self._telemetry = telemetry or get_telemetry()
        self.admission = AdmissionController(
            max_in_flight=self.config.max_in_flight,
            max_queue_depth=self.config.max_queue_depth,
            queue_timeout_seconds=self.config.queue_timeout_seconds,
            telemetry=self._telemetry,
        )
        self.quotas = QuotaRegistry(
            default=self.config.default_quota, telemetry=self._telemetry,
        )

    def __repr__(self) -> str:
        vault = self._vault.name if self._vault is not None else None
        return (f"PreservationService(db={self._database.name!r}, "
                f"vault={vault!r})")

    # ------------------------------------------------------------------
    # the front door
    # ------------------------------------------------------------------

    def submit(self, request: ServiceRequest) -> ServiceResponse:
        """Run one request end to end; never raises for per-request
        failures — inspect ``ServiceResponse.status``."""
        metrics = self._telemetry.metrics
        started = time.perf_counter()
        retries = 0
        try:
            self.quotas.charge(request.tenant)
            self.admission.acquire()
        except (QuotaExceededError, AdmissionRejectedError) as exc:
            return self._finish(request, "rejected", None, str(exc),
                                started, retries)
        try:
            if self.config.simulated_io_seconds > 0:
                time.sleep(self.config.simulated_io_seconds)
            handler = getattr(self, f"_op_{request.op}")
            result, retries = handler(request)
        except QuotaExceededError as exc:
            return self._finish(request, "rejected", None, str(exc),
                                started, retries)
        except TransactionConflictError as exc:
            return self._finish(request, "conflict", None, str(exc),
                                started, retries)
        except ReproError as exc:
            # domain failure: the response contract reports it in the
            # body instead of raising at the caller
            metrics.counter("service_errors_total", op=request.op).inc()
            return self._finish(request, "error", None,
                                f"{type(exc).__name__}: {exc}",
                                started, retries)
        except Exception as exc:  # noqa: BLE001 - front door must never raise at a tenant
            metrics.counter("service_errors_total", op=request.op).inc()
            metrics.counter("service_unexpected_errors_total",
                            op=request.op).inc()
            return self._finish(request, "error", None,
                                f"{type(exc).__name__}: {exc}",
                                started, retries)
        finally:
            self.admission.release()
        return self._finish(request, "ok", result, None, started, retries)

    def _finish(self, request: ServiceRequest, status: str, result: Any,
                error: str | None, started: float,
                retries: int) -> ServiceResponse:
        elapsed = time.perf_counter() - started
        metrics = self._telemetry.metrics
        metrics.counter("service_requests_total", op=request.op,
                        outcome=status).inc()
        metrics.histogram("service_request_seconds",
                          op=request.op).observe(elapsed)
        return ServiceResponse(
            tenant=request.tenant, op=request.op, status=status,
            result=result, error=error, elapsed_seconds=elapsed,
            retries=retries,
        )

    # ------------------------------------------------------------------
    # operation handlers (return (result, retries))
    # ------------------------------------------------------------------

    def _op_query(self, request: ServiceRequest) -> tuple[Any, int]:
        payload = request.payload
        table = payload.get("table")
        if not table:
            raise ServiceError("query payload needs a 'table'")
        with self._database.snapshot() as snap:
            query = snap.query(table)
            predicate = payload.get("predicate")
            if predicate is not None:
                query = query.where(predicate)
            order_by = payload.get("order_by")
            if order_by:
                query = query.order_by(
                    order_by, descending=bool(payload.get("descending")))
            limit = payload.get("limit")
            if limit is not None:
                query = query.limit(int(limit))
            columns = payload.get("columns")
            if columns:
                query = query.select(*columns)
            rows = query.all()
        self.quotas.check_rows(request.tenant, len(rows))
        return rows, 0

    def _op_ingest(self, request: ServiceRequest) -> tuple[Any, int]:
        payload = request.payload
        table = payload.get("table")
        if not table:
            raise ServiceError("ingest payload needs a 'table'")
        rows: Sequence[Mapping[str, Any]] = payload.get("rows") or ()
        updates: Sequence[Mapping[str, Any]] = payload.get("updates") or ()
        self.quotas.check_rows(request.tenant, len(rows) + len(updates))
        metrics = self._telemetry.metrics
        attempts = max(1, self.config.conflict_retries)
        for attempt in range(attempts):
            try:
                with self._database.transaction():
                    inserted = [
                        self._database.insert(table, row) for row in rows
                    ]
                    updated = 0
                    for update in updates:
                        rowid = self._database.rowid_for(
                            table, update["key"])
                        self._database.update(
                            table, rowid, update["changes"])
                        updated += 1
                return ({"inserted": len(inserted), "updated": updated,
                         "rowids": inserted}, attempt)
            except TransactionConflictError:
                metrics.counter("service_conflict_retries_total",
                                table=table).inc()
                if attempt + 1 >= attempts:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover - loop always returns or raises

    def _op_audit(self, request: ServiceRequest) -> tuple[Any, int]:
        vault = self._require_vault()
        report = vault.verify()
        result: dict[str, Any] = {
            "objects_checked": report.objects_checked,
            "replicas_checked": report.replicas_checked,
            "corrupt": len(report.corrupt),
            "repaired": 0,
        }
        if request.payload.get("repair", True) and report.corrupt:
            repair = vault.repair(report)
            result["repaired"] = len(repair)
        return result, 0

    def _op_vault_status(self, request: ServiceRequest) -> tuple[Any, int]:
        return self._require_vault().status(), 0

    def _require_vault(self) -> Any:
        if self._vault is None:
            raise ServiceError(
                "this service was built without a preservation vault")
        return self._vault

    # ------------------------------------------------------------------
    # ergonomic wrappers
    # ------------------------------------------------------------------

    def query(self, tenant: str, table: str,
              **payload: Any) -> ServiceResponse:
        payload["table"] = table
        return self.submit(ServiceRequest(tenant, "query", payload))

    def ingest(self, tenant: str, table: str,
               rows: Sequence[Mapping[str, Any]] = (),
               updates: Sequence[Mapping[str, Any]] = ()) -> ServiceResponse:
        return self.submit(ServiceRequest(
            tenant, "ingest",
            {"table": table, "rows": list(rows), "updates": list(updates)},
        ))

    def audit(self, tenant: str, repair: bool = True) -> ServiceResponse:
        return self.submit(
            ServiceRequest(tenant, "audit", {"repair": repair}))

    def vault_status(self, tenant: str) -> ServiceResponse:
        return self.submit(ServiceRequest(tenant, "vault_status"))
