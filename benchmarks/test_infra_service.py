"""Infrastructure benchmark: the multi-tenant service façade.

A load generator drives N tenants of mixed traffic — 70% snapshot
queries, 25% transactional ingests, 5% vault audits — through
:class:`~repro.service.PreservationService`, once serially and once with
all tenants on concurrent threads.  Results land in
``BENCH_service.json`` at the repository root: per-phase throughput
(requests/second) and latency percentiles (p50/p99 ms), plus the
concurrent/serial throughput ratio CI gates on.

Each request carries ``SIMULATED_IO_SECONDS`` of modeled external I/O
(network hop, disk read — the in-process engine itself has none), which
is exactly the regime the service layer exists for: MVCC snapshot reads
and per-thread transactions let requests overlap during that wait
instead of queueing behind a single session.

The two phases also assert *equivalence*: every request succeeds in
both, and the ingested rows land identically — concurrency must never
buy a different answer.
"""

from __future__ import annotations

import datetime as dt
import random
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from harness import Bench
from repro.archive import PreservationVault
from repro.core.preservation import PreservationLevel
from repro.service import PreservationService, ServiceConfig
from repro.sounds.collection import SoundCollection
from repro.sounds.record import SoundRecord
from repro.storage import Column, TableSchema, col
from repro.storage import column_types as ct
from repro.telemetry import Telemetry

pytestmark = pytest.mark.smoke

N_TENANTS = 8
REQUESTS_PER_TENANT = 30
N_RECORDS = 200
SIMULATED_IO_SECONDS = 0.002
#: share of each tenant's stream per operation
QUERY_SHARE, INGEST_SHARE = 0.70, 0.25  # the remaining 5% are audits
#: wall-clock speedup on shared CI runners is nondeterministic, so this
#: floor is strict-only: it fails the run only under REPRO_BENCH_STRICT=1
#: and CI annotates a warning when it dips
MIN_CONCURRENT_SPEEDUP = 1.5

bench = Bench(
    "service", tenants=N_TENANTS, requests_per_tenant=REQUESTS_PER_TENANT,
    records=N_RECORDS, simulated_io_seconds=SIMULATED_IO_SECONDS,
    traffic_mix={"query": QUERY_SHARE, "ingest": INGEST_SHARE,
                 "audit": round(1 - QUERY_SHARE - INGEST_SHARE, 2)})

_FORMATS = ("WAV", "MP3", "FLAC")


def _bench_collection(label: str) -> SoundCollection:
    collection = SoundCollection(label)
    collection.add_many([
        SoundRecord(
            record_id=i,
            species=f"Species number{i % 40}",
            genus="Species",
            country="Brazil",
            state="SP",
            habitat="Forest",
            collect_date=dt.date(1970 + i % 44, 1 + i % 12, 1 + i % 28),
            sound_file_format=_FORMATS[i % len(_FORMATS)],
            duration_s=30.0 + i % 90,
        )
        for i in range(1, N_RECORDS + 1)
    ])
    return collection


def _build_service(label: str, vault: PreservationVault,
                   telemetry: Telemetry) -> PreservationService:
    collection = _bench_collection(label)
    database = collection.database
    database.create_table(TableSchema("annotations", [
        Column("id", ct.INTEGER),
        Column("tenant", ct.TEXT, nullable=False),
        Column("grade", ct.INTEGER),
    ], primary_key="id"))
    return PreservationService(
        database, vault=vault,
        config=ServiceConfig(
            max_in_flight=N_TENANTS,
            max_queue_depth=N_TENANTS * REQUESTS_PER_TENANT,
            queue_timeout_seconds=30.0,
            conflict_retries=20,
            simulated_io_seconds=SIMULATED_IO_SECONDS,
        ),
        telemetry=telemetry,
    )


def _tenant_requests(tenant: int) -> list[tuple[str, dict]]:
    """Deterministic mixed op stream for one tenant."""
    rng = random.Random(1000 + tenant)
    stream: list[tuple[str, dict]] = []
    for step in range(REQUESTS_PER_TENANT):
        draw = rng.random()
        if draw < QUERY_SHARE:
            stream.append(("query", {
                "species": f"Species number{rng.randrange(40)}",
                "limit": rng.randrange(5, 25),
            }))
        elif draw < QUERY_SHARE + INGEST_SHARE:
            stream.append(("ingest", {
                "id": tenant * 10_000 + step,
                "grade": rng.randrange(10),
            }))
        else:
            stream.append(("audit", {}))
    return stream


def _run_tenant(service: PreservationService, tenant: int) -> list:
    name = f"tenant-{tenant}"
    responses = []
    for op, payload in _tenant_requests(tenant):
        if op == "query":
            responses.append(service.query(
                name, "recordings",
                predicate=col("species") == payload["species"],
                limit=payload["limit"]))
        elif op == "ingest":
            responses.append(service.ingest(
                name, "annotations",
                rows=[{"id": payload["id"], "tenant": name,
                       "grade": payload["grade"]}]))
        else:
            responses.append(service.audit(name, repair=False))
    return responses


def _percentile(sorted_values: list[float], fraction: float) -> float:
    index = min(len(sorted_values) - 1,
                max(0, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


def _phase_stats(responses: list, wall_seconds: float) -> dict:
    latencies = sorted(r.elapsed_seconds for r in responses)
    return {
        "requests": len(responses),
        "wall_seconds": round(wall_seconds, 4),
        "throughput_rps": round(len(responses) / wall_seconds, 1),
        "p50_ms": round(_percentile(latencies, 0.50) * 1000, 3),
        "p99_ms": round(_percentile(latencies, 0.99) * 1000, 3),
    }


def _annotation_keys(service: PreservationService) -> set[tuple]:
    return {
        (row["id"], row["tenant"], row["grade"])
        for row in service._database.query("annotations").all()
    }


@pytest.mark.benchmark(group="infra-service")
def test_concurrent_tenants_beat_serial():
    telemetry = Telemetry()
    vault = PreservationVault("service-bench", telemetry=telemetry)
    vault.ingest(_bench_collection("vault-seed"),
                 PreservationLevel.ANALYSIS_LEVEL)

    serial_service = _build_service("serial", vault, telemetry)
    start = time.perf_counter()
    serial_responses = [
        response
        for tenant in range(N_TENANTS)
        for response in _run_tenant(serial_service, tenant)
    ]
    serial_wall = time.perf_counter() - start

    concurrent_service = _build_service("concurrent", vault, telemetry)
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=N_TENANTS) as pool:
        concurrent_responses = [
            response
            for batch in pool.map(
                lambda tenant: _run_tenant(concurrent_service, tenant),
                range(N_TENANTS))
            for response in batch
        ]
    concurrent_wall = time.perf_counter() - start

    # equivalence first: every request succeeded in both phases, and the
    # ingested rows are identical
    assert all(r.ok for r in serial_responses), [
        r.error for r in serial_responses if not r.ok][:3]
    assert all(r.ok for r in concurrent_responses), [
        r.error for r in concurrent_responses if not r.ok][:3]
    assert _annotation_keys(concurrent_service) \
        == _annotation_keys(serial_service)

    serial_stats = _phase_stats(serial_responses, serial_wall)
    concurrent_stats = _phase_stats(concurrent_responses, concurrent_wall)
    speedup = round(
        concurrent_stats["throughput_rps"]
        / serial_stats["throughput_rps"], 2)
    bench.record("serial", **serial_stats)
    bench.record("concurrent", **concurrent_stats,
                 concurrent_speedup=speedup)
    print(f"\nservice bench: serial {serial_stats['throughput_rps']} rps "
          f"vs concurrent {concurrent_stats['throughput_rps']} rps "
          f"({speedup}x), concurrent p99 {concurrent_stats['p99_ms']} ms")
    bench.floor("concurrent", "concurrent_speedup", MIN_CONCURRENT_SPEEDUP,
                strict=True)
