"""The three end-to-end workloads and their oracles.

Each workload builds its inputs from the seed alone, times its
operations until the time budget (or the scale's operation cap) runs
out, and checks its outputs against an oracle:

* ``fnjv_e2e`` — one paper-scale pass over ``FNJVCaseStudy(seed)``:
  curation pipeline, DQM report, level-3 vault ingest + verify,
  provenance seal + lineage audit, Workflow-Run RO-Crate export and one
  name re-check.  The operation is the whole pass.
* ``recuration_churn`` — an ``IncrementalCurator`` over the same table,
  one cold sweep, then rounds of streamed arrivals, clustered
  re-determinations and an incremental sweep; every ``bump_every``-th
  round first re-issues the catalogue.  The operation is one round.
* ``service_mix`` — one closed-loop client alternating two tenants,
  sending 70% snapshot queries, 28% one-row ingests and 2% vault audits
  to a ``PreservationService``.  The timed operation is the query.

:func:`run` measures one workload untraced (end-to-end metrics) or
traced (per-layer metrics, see :mod:`tracing`).
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, NamedTuple

import tracing
from repro.archive import PreservationVault
from repro.casestudy.fnjv import PAPER_FIGURES, CaseStudyResults, FNJVCaseStudy
from repro.core.preservation import PreservationLevel
from repro.curation.pipeline import CollectionSink
from repro.curation.species_check import CATALOGUE
from repro.linkeddata import rocrate
from repro.provenance.store.queries import TraversalBudget
from repro.service import PreservationService, ServiceConfig
from repro.sounds.collection import RECORDINGS, SoundCollection
from repro.sounds.generator import CollectionConfig
from repro.storage import Column, Database, TableSchema, col
from repro.storage import column_types as ct
from repro.streaming import IncrementalCurator, ObservationStream
from repro.streaming.incremental import catalogue_resolver
from repro.workflow.model import Workflow

__all__ = ["END_TO_END", "OracleError", "PAPER", "Scale", "TINY",
           "WORKLOADS", "percentile", "run"]

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: churn shape: 186 shards of 64 at paper scale, ~0.25% of the records
#: change per round
SHARD_SIZE = 64
ARRIVALS = 16
EDITS = 14
#: service shape: one closed-loop client alternating two tenants; every
#: block of 50 requests holds exactly 35 queries, 14 ingests and one
#: audit (70/28/2%), shuffled, so runs differ in order, never in mix
TENANTS = ("tenant-0", "tenant-1")
MIX_BLOCK = ("query",) * 35 + ("ingest",) * 14 + ("audit",)

#: every end-to-end metric, with its unit, in report order
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
)


class Scale(NamedTuple):
    """Input sizes; :data:`PAPER` is what the benchmark measures."""

    #: generated records (``None`` = the paper's 11,898)
    records: int | None
    #: caps on timed operations per run (``None``: only the time budget
    #: ends the run) — e2e passes, churn rounds, service requests
    passes: int | None
    rounds: int | None
    requests: int | None
    #: every n-th churn round re-issues the catalogue first
    bump_every: int
    #: records archived in the service's vault (+1 package object)
    vault_records: int

    def config(self, seed: int) -> CollectionConfig:
        if self.records is None:
            return CollectionConfig(seed=seed)
        return CollectionConfig(
            seed=seed, n_records=self.records,
            n_distinct_species=max(20, self.records // 4),
            n_outdated_species=max(2, self.records // 50),
            n_misidentified=3, n_anachronisms=5)


PAPER = Scale(records=None, passes=None, rounds=None, requests=None,
              bump_every=40, vault_records=300)
TINY = Scale(records=600, passes=1, rounds=5, requests=40, bump_every=2,
             vault_records=30)


class OracleError(Exception):
    """A workload's output disagreed with its oracle."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Phase:
    """What one measured phase of a workload produced."""

    def __init__(self) -> None:
        self.setup_s: list[float] = []
        #: seconds per timed operation
        self.ops: list[float] = []
        #: records, rounds or requests per second
        self.throughput = 0.0
        self.attempted = 0
        self.failed = 0
        self.detail: dict[str, tuple[float, str]] = {}
        #: telemetry counter deltas over the phase (oracles excluded)
        self.counters: dict[str, float] = {}


class _Budget:
    """Start another operation only while it is expected to fit."""

    def __init__(self, seconds: float, max_ops: int | None) -> None:
        self.seconds = seconds
        self.max_ops = max_ops
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def allows(self, done: int, last: float) -> bool:
        if self.max_ops is not None and done >= self.max_ops:
            return False
        return done == 0 or self.elapsed() + last <= self.seconds


def _set_up(phase: Phase, recorder: Any, repeats: int,
            build: Callable[[], Any]) -> Any:
    """Build the fixture ``repeats`` times (timing each), keep the last."""
    fixture = None
    for _ in range(repeats):
        fixture = None
        gc.collect()
        start = time.perf_counter()
        with recorder.span("bench.setup"):
            fixture = build()
        phase.setup_s.append(time.perf_counter() - start)
    return fixture


# ----------------------------------------------------------------------
# fnjv_e2e
# ----------------------------------------------------------------------

FNJV_STAGES = ("pipeline", "dqm", "vault_ingest", "vault_verify",
               "lineage", "crate", "recheck")


def _finds_planted_names(result: Any, planted: dict[str, str]) -> bool:
    """Exactly the planted outdated names, each mapped to its accepted
    name — except names the simulated catalogue service (availability
    0.9) failed to answer on every retry, which that run leaves
    unresolved."""
    unanswered = {
        resolution["queried"]
        for binding in result.trace.bindings_for(CATALOGUE, "output")
        if binding.port == "resolutions"
        for resolution in binding.value
        if resolution["status"] == "unresolved"
    }
    found = result.updated_names
    return (all(planted.get(old) == new for old, new in found.items())
            and set(planted) - set(found) <= unanswered)


@contextmanager
def _stage(recorder: Any, name: str,
           into: dict[str, float]) -> Iterator[None]:
    start = time.perf_counter()
    with recorder.span(f"e2e.{name}"):
        yield
    into[name] = into.get(name, 0.0) + time.perf_counter() - start


def _fnjv_pass(study: FNJVCaseStudy, scale: Scale, recorder: Any,
               stage_s: dict[str, float]) -> None:
    """One pass over a freshly built case study, checked as it goes."""
    repository = study.provenance.repository
    with _stage(recorder, "pipeline", stage_s):
        report = study.pipeline.run_all()
    check = report.species_check
    with _stage(recorder, "dqm", stage_s):
        quality = study.assess_quality(check.run_id)
    vault = PreservationVault(f"fnjv-{study.seed}", provenance=repository)
    with _stage(recorder, "vault_ingest", stage_s):
        vault.ingest(study.collection, PreservationLevel.ANALYSIS_LEVEL)
    with _stage(recorder, "vault_verify", stage_s):
        audit = vault.verify()
    outputs = [binding.artifact_id for binding
               in check.trace.bindings_for(Workflow.IO, "output")]
    with _stage(recorder, "lineage", stage_s):
        repository.store.seal()
        lineage = [
            (repository.store.runs_for_artifact(artifact),
             repository.store.ancestors(
                 artifact, budget=TraversalBudget(max_nodes=10_000)))
            for artifact in outputs
        ]
    with _stage(recorder, "crate", stage_s):
        crate = rocrate.build_run_crate(repository, check.run_id)
        rocrate.crate_to_json(crate)
        problems = rocrate.validate_crate(crate)
    with _stage(recorder, "recheck", stage_s):
        recheck = study.pipeline.recheck_names(2013)

    records = len(study.collection)
    for label, result in (("species check", check), ("re-check", recheck)):
        _check(_finds_planted_names(result, study.truth.outdated_species),
               f"{label} disagrees with the planted outdated names")
    _check(audit.healthy and audit.objects_checked == records + 1,
           f"vault verify: {audit!r}, expected {records + 1} objects")
    _check(bool(outputs) and all(
        check.run_id in runs and len(ancestors) > 0
        for runs, ancestors in lineage),
        "lineage audit lost the species-check run's outputs")
    _check(problems == [], f"RO-Crate validation: {problems[:3]}")
    if scale.records is None and study.seed == 2013:
        measured = CaseStudyResults(check, quality, report,
                                    study.truth).measured_figures()
        for key in ("records_processed", "distinct_species_names",
                    "outdated_names"):
            _check(measured[key] == PAPER_FIGURES[key],
                   f"{key}: {measured[key]} != {PAPER_FIGURES[key]}")
        _check(round(measured["accuracy"], 2) == PAPER_FIGURES["accuracy"],
               f"accuracy {measured['accuracy']} != 0.93")


def fnjv_e2e(phase: Phase, seed: int, seconds: float, scale: Scale,
             recorder: Any, setups: int) -> Callable[[], None]:
    def build() -> FNJVCaseStudy:
        return FNJVCaseStudy(seed, config=scale.config(seed))

    study = _set_up(phase, recorder, setups, build)
    stage_s: dict[str, float] = {}
    budget = _Budget(seconds, scale.passes)
    last = 0.0
    while budget.allows(len(phase.ops), last):
        if phase.ops:  # every pass needs an uncurated collection
            study = _set_up(phase, recorder, 1, build)
        gc.collect()
        phase.attempted += 1
        start = time.perf_counter()
        _fnjv_pass(study, scale, recorder, stage_s)
        phase.ops.append(time.perf_counter() - start)
        last = phase.ops[-1] + phase.setup_s[-1]
    passes = len(phase.ops)
    phase.throughput = len(study.collection) * passes / sum(phase.ops)
    for name in FNJV_STAGES:
        phase.detail[f"stage.{name}_s"] = (stage_s[name] / passes, "s")
    return lambda: None


# ----------------------------------------------------------------------
# recuration_churn
# ----------------------------------------------------------------------

def recuration_churn(phase: Phase, seed: int, seconds: float, scale: Scale,
                     recorder: Any, setups: int) -> Callable[[], None]:
    def build() -> tuple[FNJVCaseStudy, IncrementalCurator,
                         ObservationStream]:
        study = FNJVCaseStudy(seed, config=scale.config(seed))
        curator = IncrementalCurator(
            study.collection.database, catalogue_resolver(study.catalogue),
            shard_size=SHARD_SIZE, resource_versions={"catalogue": 1})
        sink = CollectionSink(study.collection)
        stream = ObservationStream(
            sink, capacity=64, batch_size=16,
            on_batch=lambda batch: curator.mark_dirty(sink.last_ids))
        return study, curator, stream

    study, curator, stream = _set_up(phase, recorder, setups, build)
    database = study.collection.database
    records = len(study.collection)
    names = study.collection.distinct_species()
    rng = random.Random(seed)

    gc.collect()
    budget = _Budget(seconds, scale.rounds)
    phase.attempted += 1
    with recorder.span("churn.cold_sweep"):
        result = curator.assess()
    cold_s = budget.elapsed()

    bumps: list[float] = []
    last = 0.0
    rounds = 0
    while budget.allows(rounds, last):
        rounds += 1
        arrivals = [{**database.get(RECORDINGS, rng.randint(1, records)),
                     "record_id": None} for _ in range(ARRIVALS)]
        base = rng.randint(1, records - EDITS + 1)
        edits = [(record_id, rng.choice(names))
                 for record_id in range(base, base + EDITS)]
        bump = rounds % scale.bump_every == 0
        phase.attempted += 1
        start = time.perf_counter()
        with recorder.span("churn.bump_round" if bump else "churn.round"):
            if bump:
                curator.bump_resource("catalogue")
            stream.ingest(arrivals)
            for record_id, name in edits:
                database.update_where(
                    RECORDINGS, col("record_id") == record_id,
                    {"species": name, "genus": name.split()[0]})
            curator.mark_dirty(record_id for record_id, _ in edits)
            result = curator.assess()
        last = time.perf_counter() - start
        (bumps if bump else phase.ops).append(last)
    # rounds per second of the schedule (a catalogue re-issue every
    # bump_every rounds) from the median round costs, so the rate does
    # not hinge on how many bump rounds fit in the budget
    share = 1 / scale.bump_every if bumps else 0.0
    phase.throughput = 1 / ((1 - share) * statistics.median(phase.ops)
                            + share * statistics.median(bumps or [0.0]))
    phase.detail.update({
        "cold_sweep_s": (cold_s, "s"),
        "rounds": (rounds, "count"),
    })
    if bumps:
        phase.detail["bump_sweep_s"] = (statistics.median(bumps), "s")

    def verify() -> None:
        cold = IncrementalCurator(
            database, catalogue_resolver(study.catalogue),
            shard_size=SHARD_SIZE,
            resource_versions=curator.resource_versions).assess()
        _check(result.digest == cold.digest,
               f"incremental digest {result.digest[:16]} != cold "
               f"{cold.digest[:16]}")
    return verify


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------

def _service_fixture(seed: int, scale: Scale) -> tuple[
        PreservationService, Database, dict[str, int], int]:
    study = FNJVCaseStudy(seed, config=scale.config(seed))
    database = study.collection.database
    database.create_table(TableSchema("annotations", [
        Column("id", ct.INTEGER),
        Column("tenant", ct.TEXT, nullable=False),
        Column("grade", ct.INTEGER),
    ], primary_key="id"))
    archived = SoundCollection(f"service-vault-{seed}")
    archived.database.bulk_load(RECORDINGS, database.query(RECORDINGS)
                                .where(col("record_id")
                                       <= scale.vault_records).all())
    vault = PreservationVault(f"service-{seed}")
    vault.ingest(archived, PreservationLevel.ANALYSIS_LEVEL)
    service = PreservationService(database, vault=vault, config=ServiceConfig(
        max_in_flight=2, max_queue_depth=64, queue_timeout_seconds=30.0,
        conflict_retries=20, simulated_io_seconds=0.0))
    return (service, database, study.collection.species_record_counts(),
            scale.vault_records + 1)


def _rate(finished: list[float]) -> float:
    """Requests per second: the median over the run's whole one-second
    windows (the rate's counterpart of a median latency), or the plain
    rate when the run is shorter than two seconds."""
    whole = int(finished[-1])
    if whole < 2:
        return len(finished) / finished[-1]
    per_window = [0] * whole
    for at in finished:
        if at < whole:
            per_window[int(at)] += 1
    return statistics.median(per_window)


def _send(service: PreservationService, tenant: str, op: str,
          payload: dict[str, Any]) -> Any:
    if op == "query":
        return service.query(tenant, "recordings",
                             predicate=col("species") == payload["species"],
                             limit=payload["limit"])
    if op == "ingest":
        return service.ingest(tenant, "annotations", rows=[payload])
    return service.audit(tenant, repair=False)


def service_mix(phase: Phase, seed: int, seconds: float, scale: Scale,
                recorder: Any, setups: int) -> Callable[[], None]:
    service, database, counts, vault_objects = _set_up(
        phase, recorder, setups, lambda: _service_fixture(seed, scale))
    species = sorted(counts)
    rng = random.Random(seed)
    entries: list[tuple[str, float, dict, Any]] = []
    finished: list[float] = []

    gc.collect()
    budget = _Budget(seconds, scale.requests)
    last = 0.0
    block: list[str] = []
    while budget.allows(len(entries), last):
        if not block:
            block = rng.sample(MIX_BLOCK, len(MIX_BLOCK))
        op = block.pop()
        tenant = TENANTS[len(entries) % len(TENANTS)]
        if op == "query":
            payload = {"species": rng.choice(species),
                       "limit": rng.randint(5, 24)}
        elif op == "ingest":
            payload = {"id": len(entries), "tenant": tenant,
                       "grade": rng.randrange(10)}
        else:
            payload = {}
        start = time.perf_counter()
        response = _send(service, tenant, op, payload)
        last = time.perf_counter() - start
        entries.append((op, last, payload, response))
        finished.append(budget.elapsed())

    by_op: dict[str, list[float]] = {"query": [], "ingest": [], "audit": []}
    for op, latency, _, _ in entries:
        by_op[op].append(latency)
    phase.ops = by_op["query"]
    phase.throughput = _rate(finished)
    phase.attempted = len(entries)
    phase.detail.update({
        "requests": (len(entries), "count"),
        "queries": (len(phase.ops), "count"),
    })
    for op in ("ingest", "audit"):
        if by_op[op]:
            phase.detail[f"{op}_p50_ms"] = (
                statistics.median(by_op[op]) * 1000, "ms")

    def verify() -> None:
        ingested = set()
        for op, _, payload, response in entries:
            if not response.ok:
                phase.failed += 1
            elif op == "query":
                rows = response.result
                expected = min(payload["limit"], counts[payload["species"]])
                if len(rows) != expected or any(
                        row["species"] != payload["species"] for row in rows):
                    phase.failed += 1
            elif op == "ingest":
                ingested.add((payload["id"], payload["tenant"],
                              payload["grade"]))
            elif (response.result["corrupt"]
                  or response.result["objects_checked"] != vault_objects):
                phase.failed += 1
        _check(phase.failed == 0,
               f"{phase.failed} request(s) failed or answered wrongly")
        stored = {(row["id"], row["tenant"], row["grade"])
                  for row in database.query("annotations").all()}
        _check(stored == ingested,
               f"annotations hold {len(stored)} rows, "
               f"{len(ingested)} were ingested")
    return verify


# ----------------------------------------------------------------------
# running one workload
# ----------------------------------------------------------------------

class Workload(NamedTuple):
    body: Callable[..., Callable[[], None]]
    #: quantile reported as ``op_tail_ms``: the highest with about ten
    #: samples beyond it at the default run length
    tail: float
    why: str


WORKLOADS: dict[str, Workload] = {
    "fnjv_e2e": Workload(
        fnjv_e2e, 1.0,
        "the paper's batch path at 11,898 records; curation, taxonomy, "
        "archive, core and linked-data layers, no service or streaming"),
    "recuration_churn": Workload(
        recuration_churn, 0.90,
        "streamed arrivals and re-determinations re-curated incrementally; "
        "streaming, engine cache, provenance ingest and storage writes"),
    "service_mix": Workload(
        service_mix, 0.99,
        "closed-loop tenants on MVCC snapshot queries, transactional "
        "ingests and vault audits; no engine, cache or streaming"),
}


def _measure(name: str, seed: int, seconds: float, scale: Scale,
             recorder: Any, setups: int) -> tuple[Phase, str | None]:
    """Run one phase and its oracle; returns the phase and the oracle's
    complaint (``None`` when the outputs are correct)."""
    phase = Phase()
    installed = (tracing.install(recorder)
                 if isinstance(recorder, tracing.Recorder) else [])
    before = tracing.counter_snapshot()
    try:
        verify = WORKLOADS[name].body(phase, seed, seconds, scale,
                                      recorder, setups)
    except OracleError as exc:
        phase.failed += 1
        return phase, str(exc)
    finally:
        tracing.uninstall(installed)
        phase.counters = {key: value - before[key] for key, value
                          in tracing.counter_snapshot().items()}
    try:
        verify()
    except OracleError as exc:
        phase.failed = max(phase.failed, 1)
        return phase, str(exc)
    return phase, None


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def run(name: str, seed: int, seconds: float, trace: bool = False,
        scale: Scale = PAPER, spans_path: str | None = None
        ) -> dict[str, Any]:
    """Measure one workload; returns its run document.

    Untraced, the document's ``metrics`` are the :data:`END_TO_END`
    values.  Traced, the budget is split: an untraced phase, then a
    phase with every layer wrapped, whose per-layer totals become the
    ``metrics`` (with ``trace_overhead``, the ratio of the two phases'
    median operation times minus one); ``spans_path`` receives the
    traced phase's spans as OTLP-shaped JSON.
    """
    workload = WORKLOADS[name]
    document: dict[str, Any] = {"workload": name, "seed": seed,
                                "seconds": seconds, "trace": trace}
    metrics: dict[str, Any] = {}
    if not trace:
        phase, error = _measure(name, seed, seconds, scale,
                                tracing.NullRecorder(), SETUP_REPEATS)
        phases = [phase]
        if error is None:
            metrics = {
                "setup_s": _metric(statistics.median(phase.setup_s), "s"),
                "peak_rss_mb": _metric(resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "op_p50_ms": _metric(
                    statistics.median(phase.ops) * 1000, "ms"),
                "op_tail_ms": _metric(
                    percentile(phase.ops, workload.tail) * 1000, "ms"),
                "throughput_per_s": _metric(phase.throughput, "1/s"),
            }
    else:
        phase, error = _measure(name, seed, seconds / 2, scale,
                                tracing.NullRecorder(), 1)
        phases = [phase]
        if error is None:
            recorder = tracing.Recorder()
            phase, error = _measure(name, seed, seconds / 2, scale,
                                    recorder, 1)
            phases.append(phase)
        if error is None:
            overhead = (statistics.median(phase.ops)
                        / statistics.median(phases[0].ops) - 1)
            values = tracing.layer_metrics(recorder, phase.counters,
                                           overhead)
            metrics = {metric: _metric(values[metric], unit)
                       for metric, unit in tracing.LAYER_METRICS}
            if spans_path is not None:
                tracing.write_otlp(recorder, spans_path)
    document.update({
        "correct": error is None,
        "attempted": max(1, sum(each.attempted for each in phases)),
        "failed": sum(each.failed for each in phases),
        "error": error,
        "metrics": metrics,
        "detail": {key: _metric(value, unit)
                   for key, (value, unit) in phase.detail.items()},
    })
    return document
