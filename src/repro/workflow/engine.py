"""The workflow execution engine.

Deterministic by construction: time comes from a :class:`SimulatedClock`
(the paper's Listing 1 timestamp, 2013-11-12 19:58:09 UTC, is the default
epoch) and run ids from a per-engine counter.  Processors execute in
*wave order* — the level-order decomposition of the DAG
(:meth:`~repro.workflow.model.Workflow.waves`), alphabetical within each
wave — and every port value is recorded in the
:class:`~repro.workflow.trace.WorkflowTrace` so the Provenance Manager
can later reconstruct full OPM provenance.

Parallelism: ``WorkflowEngine(max_workers=N)`` dispatches the members of
each wave (mutually independent by construction) to a thread pool and
joins before moving on.  ``N=1`` keeps today's exact inline sequential
semantics.  Whatever ``N``, results are *committed* to the trace on the
calling thread in wave+name order, and the simulated clock only advances
at commit — so run ids, artifact ids, trace contents, timestamps and
listener events are identical for every worker count; only wall-clock
time changes.

Caching: pass a :class:`~repro.workflow.cache.ResultCache` and
invocations whose (processor, implementation version, config, bound
inputs) digest has been seen before skip execution entirely.  The trace
still records a :class:`ProcessorRun` for them, with zero simulated
duration and ``cached_from`` naming the original execution — provenance
never lies about re-execution.  Processors opt out via
``config["cacheable"] = False``.

Failure semantics: a processor exception aborts the run (status
``failed``) unless the processor's config sets ``"allow_failure": True``,
in which case downstream ports fed by it see ``None`` and the run
continues — mirroring how Taverna pipelines tolerate flaky services.
Such a run finishes with status ``degraded`` (not ``completed``): the
outputs exist but were produced with at least one processor down, and
:class:`RunResult` exposes both the status and the failed-processor
count so callers never mistake a partial result for a clean one.
With ``max_workers > 1`` a fatal failure still aborts at the failing
processor's commit point: same-wave siblings that already ran are
discarded, later waves never start, and the trace matches the ``N=1``
run byte for byte.

Implicit iteration (Taverna's signature behaviour): a processor whose
config names an input port in ``"iterate_over"`` is invoked once per
item when that port receives a list; the other inputs broadcast, each
output port collects its per-item values into a list, and simulated
durations accumulate.
"""

from __future__ import annotations

import datetime as _dt
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Mapping

from repro.errors import WorkflowExecutionError, WorkflowValidationError
from repro.workflow.cache import CachedResult, ResultCache, invocation_key
from repro.workflow.model import Processor, Workflow
from repro.workflow.trace import ProcessorRun, WorkflowTrace

__all__ = ["SimulatedClock", "RunResult", "WorkflowEngine"]

#: Listing 1's annotation timestamp — a natural epoch for the simulation.
#: Timezone-aware: the paper's timestamp is UTC, and keeping the epoch
#: aware means every clock-derived instant serializes with its offset.
DEFAULT_EPOCH = _dt.datetime(2013, 11, 12, 19, 58, 9,
                             tzinfo=_dt.timezone.utc)

#: simulated duration charged to a processor that does not report its own
DEFAULT_STEP_SECONDS = 0.1


class SimulatedClock:
    """A deterministic, thread-safe clock starting at
    :data:`DEFAULT_EPOCH`.

    ``now()`` returns the current simulated instant; ``advance(seconds)``
    moves it forward.  Processors that model expensive work (e.g. the
    simulated Catalogue of Life's network latency) advance the clock via
    the engine's run context.  Both operations take an internal lock:
    engines share one clock across runs, and with ``max_workers > 1``
    worker threads read it while the scheduler advances it.
    """

    def __init__(self) -> None:
        self._now = DEFAULT_EPOCH
        self._lock = threading.Lock()

    def now(self) -> _dt.datetime:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> _dt.datetime:
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        with self._lock:
            self._now += _dt.timedelta(seconds=seconds)
            return self._now

    def __repr__(self) -> str:
        return f"SimulatedClock({self.now().isoformat()})"


class RunResult:
    """What a run returns: outputs plus the full trace.

    ``wall_seconds`` is the *real* elapsed time of this run, measured
    with a monotonic clock on the calling thread — unlike the simulated
    trace duration it is unaffected by other runs interleaving on the
    shared :class:`SimulatedClock`, so it is the number benchmarks and
    schedulers should compare.
    """

    def __init__(self, outputs: dict[str, Any], trace: WorkflowTrace,
                 wall_seconds: float = 0.0) -> None:
        self.outputs = outputs
        self.trace = trace
        self.wall_seconds = wall_seconds

    @property
    def run_id(self) -> str:
        return self.trace.run_id

    @property
    def status(self) -> str:
        """``completed`` | ``degraded`` | ``failed``."""
        return self.trace.status

    @property
    def succeeded(self) -> bool:
        """True only for a fully clean run — degraded runs don't count."""
        return self.trace.status == "completed"

    @property
    def degraded(self) -> bool:
        """True when an ``allow_failure`` processor failed mid-run."""
        return self.trace.status == "degraded"

    @property
    def failed_processor_count(self) -> int:
        return len(self.trace.failed_processors())

    @property
    def cached_processors(self) -> list[str]:
        """Processors served from the result cache during this run."""
        return [
            run.processor for run in self.trace.processor_runs
            if run.cached_from is not None
        ]

    def __getitem__(self, port: str) -> Any:
        return self.outputs[port]

    def __repr__(self) -> str:
        return f"RunResult({self.run_id}, {self.trace.status})"


class _Invocation:
    """Outcome of executing (or cache-replaying) one processor, produced
    on whichever thread ran it and committed later by the scheduler."""

    __slots__ = ("processor", "outputs", "duration", "status", "error",
                 "error_exc", "cached_from")

    def __init__(self, processor: str) -> None:
        self.processor = processor
        self.outputs: dict[str, Any] = {}
        self.duration = 0.0
        self.status = "completed"
        self.error: str | None = None
        self.error_exc: BaseException | None = None
        self.cached_from: str | None = None


class WorkflowEngine:
    """Executes workflows against a processor registry.

    Processor kinds map to implementations through :attr:`registry`,
    a copy of the builtin registry (:mod:`repro.workflow.builtins`) that
    callers may register more kinds on.  A processor that does not
    report its own duration is charged :data:`DEFAULT_STEP_SECONDS`.

    Parameters
    ----------
    clock:
        Simulated time source shared by all runs of this engine.
    telemetry:
        Observability sink (metrics + spans + events).  Defaults to the
        process-wide instance from
        :func:`repro.telemetry.get_telemetry`; pass an isolated
        :class:`~repro.telemetry.Telemetry` to keep runs separate.
    max_workers:
        Threads used to execute each wave of independent processors.
        ``1`` (the default) runs inline with the historical sequential
        semantics; any value produces identical traces.
    cache:
        Optional :class:`~repro.workflow.cache.ResultCache`.  When set,
        successful invocations are memoized by content digest and
        replayed on identical re-invocations (see the module docstring).
    """

    def __init__(self, clock: SimulatedClock | None = None,
                 telemetry: "Telemetry | None" = None,
                 max_workers: int = 1,
                 cache: ResultCache | None = None) -> None:
        from repro.telemetry import get_telemetry
        from repro.workflow.builtins import builtin_registry
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.registry = builtin_registry().copy()
        self.clock = clock or SimulatedClock()
        self.telemetry = telemetry or get_telemetry()
        self.max_workers = max_workers
        self.cache = cache
        self._run_counter = 0
        self._counter_lock = threading.Lock()
        self._listeners: list[Callable[[str, dict[str, Any]], None]] = []
        self.telemetry.events.attach(self)

    # ------------------------------------------------------------------
    # listeners (the Provenance Manager subscribes here)
    # ------------------------------------------------------------------

    def add_listener(self, listener: Callable[[str, dict[str, Any]], None]) -> None:
        """Subscribe to run events.  The listener receives
        ``(event_name, payload)`` where event names are ``run_started``,
        ``processor_finished``, ``run_finished``.  Events are emitted on
        the run's calling thread, in deterministic order, exactly once;
        a raising listener is isolated (counted in
        ``engine_listener_errors_total``), never aborting the run."""
        self._listeners.append(listener)

    def _emit(self, event: str, payload: dict[str, Any]) -> None:
        for listener in list(self._listeners):
            try:
                listener(event, payload)
            except Exception:  # noqa: BLE001 - listener faults must not kill runs
                self.telemetry.metrics.counter(
                    "engine_listener_errors_total", event=event,
                ).inc()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, workflow: Workflow,
            inputs: Mapping[str, Any] | None = None) -> RunResult:
        """Execute ``workflow`` with the given workflow-level inputs."""
        workflow.validate()
        inputs = dict(inputs or {})
        expected = set(workflow.input_names())
        unexpected = set(inputs) - expected
        if unexpected:
            raise WorkflowValidationError(
                f"unknown workflow inputs: {sorted(unexpected)}"
            )
        missing = expected - set(inputs)
        if missing:
            raise WorkflowValidationError(
                f"missing workflow inputs: {sorted(missing)}"
            )

        with self._counter_lock:
            self._run_counter += 1
            run_id = f"run-{self._run_counter:04d}"
        wall_started = time.perf_counter()
        trace = WorkflowTrace(run_id, workflow.name, self.clock.now())
        trace.inputs = dict(inputs)
        self._emit("run_started", {"run_id": run_id, "workflow": workflow,
                                   "inputs": dict(inputs)})

        # port value store: (processor, port) -> (value, artifact_id)
        values: dict[tuple[str, str], tuple[Any, str]] = {}
        for name, value in inputs.items():
            artifact = trace.record_binding(Workflow.IO, name, "input", value)
            values[(Workflow.IO, name)] = (value, artifact.artifact_id)

        metrics = self.telemetry.metrics
        status = "completed"
        with self.telemetry.tracer.span(
                "workflow.run", clock=self.clock,
                workflow=workflow.name, run_id=run_id) as run_span:
            for wave in workflow.waves():
                metrics.counter("engine_waves_total",
                                workflow=workflow.name).inc()
                status = self._run_wave(workflow, wave, values, trace,
                                        run_id, status)

            # workflow outputs
            outputs: dict[str, Any] = {}
            for link in workflow.links:
                if link.sink != Workflow.IO:
                    continue
                value, artifact_id = values.get(
                    (link.source, link.source_port), (None, None)
                )
                outputs[link.sink_port] = value
                trace.record_binding(Workflow.IO, link.sink_port, "output",
                                     value, artifact_id=artifact_id)
            trace.outputs = dict(outputs)
            trace.finish(self.clock.now(), status)
            run_span.set_attribute("status", status)
            run_span.set_attribute(
                "failed_processors", len(trace.failed_processors()))
        metrics.counter("workflow_runs_total",
                        workflow=workflow.name, status=status).inc()
        self._emit("run_finished", {"run_id": run_id, "trace": trace})
        return RunResult(outputs, trace,
                         wall_seconds=time.perf_counter() - wall_started)

    # ------------------------------------------------------------------
    # wave scheduling
    # ------------------------------------------------------------------

    def _run_wave(self, workflow: Workflow, wave: list[str],
                  values: dict[tuple[str, str], tuple[Any, str]],
                  trace: WorkflowTrace, run_id: str, status: str) -> str:
        """Execute one wave and commit it in name order; returns the
        updated run status (raises on fatal processor failure)."""
        if self.max_workers == 1 or len(wave) == 1:
            # inline: invoke-then-commit per member, so a fatal failure
            # stops later members before they produce side effects —
            # exactly the historical sequential behaviour.
            for name in wave:
                processor = workflow.processor(name)
                entries = self._collect_inputs(workflow, name, values)
                bound = {port: value for port, value, _ in entries}
                with self.telemetry.tracer.span(
                        "workflow.processor", clock=self.clock,
                        workflow=workflow.name, processor=name,
                        kind=processor.kind) as processor_span:
                    invocation = self._execute(processor, bound, run_id)
                    status = self._commit(workflow, processor, entries,
                                          invocation, values, trace,
                                          run_id, status)
                    processor_span.set_attribute("status", invocation.status)
            return status

        # parallel: dispatch the whole wave, join, then commit in the
        # same canonical order the inline path uses.
        members: list[tuple[Processor, list[tuple[str, Any, str | None]]]] = []
        for name in wave:
            processor = workflow.processor(name)
            entries = self._collect_inputs(workflow, name, values)
            members.append((processor, entries))
        self.telemetry.metrics.counter(
            "engine_parallel_dispatch_total", workflow=workflow.name,
        ).inc(len(members))
        with ThreadPoolExecutor(
                max_workers=min(self.max_workers, len(members)),
                thread_name_prefix=f"{run_id}-wave") as pool:
            futures = [
                pool.submit(
                    self._execute,
                    processor,
                    {port: value for port, value, _ in entries},
                    run_id,
                )
                for processor, entries in members
            ]
            invocations = [future.result() for future in futures]
        for (processor, entries), invocation in zip(members, invocations):
            with self.telemetry.tracer.span(
                    "workflow.processor", clock=self.clock,
                    workflow=workflow.name, processor=processor.name,
                    kind=processor.kind) as processor_span:
                status = self._commit(workflow, processor, entries,
                                      invocation, values, trace,
                                      run_id, status)
                processor_span.set_attribute("status", invocation.status)
        return status

    def _execute(self, processor: Processor, bound: dict[str, Any],
                 run_id: str) -> _Invocation:
        """Resolve + (cache-check +) invoke one processor.  Runs on a
        worker thread under ``max_workers > 1``; never raises — failures
        are captured in the returned :class:`_Invocation`."""
        invocation = _Invocation(processor.name)
        metrics = self.telemetry.metrics
        try:
            implementation = self.registry.resolve(processor)
            key = None
            if (self.cache is not None
                    and processor.config.get("cacheable", True)):
                key = invocation_key(processor, implementation, bound)
            if key is not None:
                hit = self.cache.get(key)
                if hit is not None:
                    metrics.counter("engine_cache_hits_total",
                                    processor=processor.name).inc()
                    invocation.outputs = hit.outputs
                    invocation.duration = 0.0
                    invocation.cached_from = hit.source
                    return invocation
                metrics.counter("engine_cache_misses_total",
                                processor=processor.name).inc()
            raw = self._invoke(processor, implementation, bound)
            invocation.outputs, invocation.duration = \
                self._normalize_outputs(processor.name, raw)
            if key is not None:
                # config["cache_tags"] names the invocation's upstream
                # dependencies (record:<id>, resource:<name>, ...) so
                # the streaming layer can invalidate by dirty set
                self.cache.put(key, CachedResult(
                    invocation.outputs, f"{run_id}/{processor.name}"),
                    tags=processor.config.get("cache_tags") or ())
        except Exception as exc:  # noqa: BLE001 - boundary by design
            invocation.status = "failed"
            invocation.error = f"{type(exc).__name__}: {exc}"
            invocation.error_exc = exc
            invocation.outputs = {}
            invocation.duration = DEFAULT_STEP_SECONDS
        return invocation

    def _commit(self, workflow: Workflow, processor: Processor,
                entries: list[tuple[str, Any, str | None]],
                invocation: _Invocation,
                values: dict[tuple[str, str], tuple[Any, str]],
                trace: WorkflowTrace, run_id: str, status: str) -> str:
        """Record one invocation into the trace — always on the calling
        thread, always in wave+name order, so artifact ids, timestamps
        and events are identical for every ``max_workers``."""
        metrics = self.telemetry.metrics
        for port, value, artifact_id in entries:
            trace.record_binding(processor.name, port, "input", value,
                                 artifact_id=artifact_id)
        started = self.clock.now()
        if invocation.status == "failed":
            metrics.counter(
                "workflow_processor_failures_total",
                workflow=workflow.name, processor=processor.name,
            ).inc()
            if not processor.config.get("allow_failure", False):
                finished = self.clock.advance(DEFAULT_STEP_SECONDS)
                trace.record_run(ProcessorRun(
                    processor.name, processor.kind, started, finished,
                    status="failed", error=invocation.error,
                ))
                trace.finish(finished, "failed")
                metrics.counter(
                    "workflow_runs_total",
                    workflow=workflow.name, status="failed",
                ).inc()
                self._emit("run_finished", {"run_id": run_id,
                                            "trace": trace})
                raise WorkflowExecutionError(
                    processor.name, invocation.error_exc
                ) from invocation.error_exc
            status = "degraded"
        finished = self.clock.advance(max(invocation.duration, 0.0))
        record = ProcessorRun(processor.name, processor.kind,
                              started, finished,
                              status=invocation.status,
                              error=invocation.error,
                              cached_from=invocation.cached_from)
        trace.record_run(record)
        metrics.histogram(
            "workflow_processor_seconds",
            workflow=workflow.name, processor=processor.name,
            kind=processor.kind,
        ).observe(record.duration.total_seconds())
        metrics.counter(
            "workflow_processor_runs_total",
            workflow=workflow.name, processor=processor.name,
            status=invocation.status,
        ).inc()
        for port in processor.output_ports:
            value = invocation.outputs.get(port)
            binding = trace.record_binding(
                processor.name, port, "output", value
            )
            values[(processor.name, port)] = (value, binding.artifact_id)
        self._emit("processor_finished", {
            "run_id": run_id, "processor": processor,
            "run": record, "outputs": dict(invocation.outputs),
        })
        return status

    # ------------------------------------------------------------------
    # invocation plumbing
    # ------------------------------------------------------------------

    def _normalize_outputs(self, processor_name: str,
                           raw: Any) -> tuple[dict[str, Any], float]:
        """Split a processor's raw return into (ports, duration).

        A non-mapping return stays tolerated (processors returning
        ``None``), but a ``__duration__`` that is not a finite number is
        a *processor failure*: the ``ValueError`` raised here is caught
        by the run loop, recorded in the trace, and wrapped in
        :class:`WorkflowExecutionError` (or tolerated under
        ``allow_failure``) — never surfaced as a raw engine crash.
        """
        if not isinstance(raw, Mapping):
            return {}, DEFAULT_STEP_SECONDS
        outputs = dict(raw)
        declared = outputs.pop("__duration__", None)
        if declared is None:
            return outputs, DEFAULT_STEP_SECONDS
        try:
            duration = float(declared)
        except (TypeError, ValueError):
            raise ValueError(
                f"processor {processor_name!r} reported non-numeric "
                f"__duration__ {declared!r}"
            ) from None
        if duration != duration or duration in (float("inf"),
                                                float("-inf")):
            raise ValueError(
                f"processor {processor_name!r} reported non-finite "
                f"__duration__ {declared!r}"
            )
        return outputs, duration

    def _invoke(self, processor, implementation,
                bound: dict[str, Any]) -> Mapping[str, Any]:
        """Run one processor, applying implicit iteration when asked."""
        iterate_over = processor.config.get("iterate_over")
        if not iterate_over:
            return implementation(bound) or {}
        items = bound.get(iterate_over)
        if not isinstance(items, (list, tuple)):
            # scalar input: plain invocation, as Taverna does
            return implementation(bound) or {}
        self.telemetry.metrics.counter(
            "workflow_iteration_items_total", processor=processor.name,
        ).inc(len(items))
        self.telemetry.metrics.histogram(
            "workflow_iteration_fanout", processor=processor.name,
        ).observe(len(items))
        collected: dict[str, list[Any]] = {
            port: [] for port in processor.output_ports
        }
        total_duration = 0.0
        for item in items:
            per_item = dict(bound)
            per_item[iterate_over] = item
            outputs = dict(implementation(per_item) or {})
            total_duration += float(outputs.pop("__duration__", 0.0))
            for port in collected:
                collected[port].append(outputs.get(port))
        result: dict[str, Any] = dict(collected)
        if total_duration > 0:
            result["__duration__"] = total_duration
        return result

    def _collect_inputs(
        self, workflow: Workflow, processor_name: str,
        values: Mapping[tuple[str, str], tuple[Any, str]],
    ) -> list[tuple[str, Any, str | None]]:
        """The input bindings of one processor as ``(port, value,
        artifact_id)`` triples, in recording order.  Pure — the trace is
        written at commit time so binding order never depends on worker
        scheduling."""
        processor = workflow.processor(processor_name)
        entries: list[tuple[str, Any, str | None]] = []
        seen: set[str] = set()
        for link in workflow.incoming_links(processor_name):
            value, artifact_id = values.get(
                (link.source, link.source_port), (None, None)
            )
            entries.append((link.sink_port, value, artifact_id))
            seen.add(link.sink_port)
        for port in processor.input_ports.values():
            if port.name not in seen and not port.required:
                entries.append((port.name, port.default, None))
        return entries
