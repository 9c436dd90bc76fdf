"""Infrastructure benchmark: the preservation vault.

Measures the archive subsystem's two hot paths and records the numbers
in ``BENCH_vault.json`` at the repository root:

a. **Ingest throughput** — records archived per second through the
   full path (package build, canonical serialization, content
   addressing, N-way replication, manifest upsert, telemetry).
b. **Audit throughput** — objects and bytes fixity-verified per second
   by a full sweep (every replica of every object re-hashed, the sweep
   persisted as an OPM provenance run).

Both are floors, not races: the assertions only guard against a path
becoming accidentally quadratic, while the JSON artifact preserves the
actual rates for the CI history.
"""

from __future__ import annotations

import datetime as dt
import time

import pytest

from harness import Bench
from repro.archive import PreservationVault
from repro.core.preservation import PreservationLevel
from repro.sounds.collection import SoundCollection
from repro.sounds.record import SoundRecord
from repro.telemetry import Telemetry

pytestmark = pytest.mark.smoke

N_RECORDS = 1_500
REPLICAS = 3
#: floor rates (records/s, objects/s) — an order of magnitude under
#: what a laptop does, so CI noise cannot flake the job
MIN_INGEST_RATE = 50.0
MIN_AUDIT_RATE = 100.0

_FORMATS = ("magnetic tape", "WAV", "AIFF", "MP3", "ATRAC")

bench = Bench("vault", records=N_RECORDS, replicas=REPLICAS)


def _bench_collection() -> SoundCollection:
    collection = SoundCollection("vault-bench")
    records = []
    for i in range(1, N_RECORDS + 1):
        records.append(SoundRecord(
            record_id=i,
            species=f"Species number{i % 120}",
            genus="Species",
            country="Brazil",
            state="SP",
            habitat="Forest",
            collect_date=dt.date(1970 + i % 44, 1 + i % 12, 1 + i % 28),
            sound_file_format=_FORMATS[i % len(_FORMATS)],
            duration_s=30.0 + i % 90,
        ))
    collection.add_many(records)
    return collection


@pytest.fixture(scope="module")
def loaded_vault():
    collection = _bench_collection()
    vault = PreservationVault("bench", replicas=REPLICAS,
                              telemetry=Telemetry())

    start = time.perf_counter()
    report = vault.ingest(collection, PreservationLevel.ANALYSIS_LEVEL)
    elapsed = time.perf_counter() - start
    return vault, report, elapsed


def test_ingest_throughput(loaded_vault):
    __, report, elapsed = loaded_vault
    rate = report.records / elapsed
    bench.record(
        "ingest",
        records=report.records,
        objects=report.new_objects,
        logical_bytes=report.logical_bytes,
        seconds=round(elapsed, 4),
        records_per_second=round(rate, 1),
        replicated_bytes_per_second=round(
            report.logical_bytes * REPLICAS / elapsed, 1),
    )
    print(f"\ningest: {report.records} records x{REPLICAS} replicas in "
          f"{elapsed * 1000:.0f} ms ({rate:.0f} records/s)")
    assert report.new_objects == N_RECORDS + 1
    bench.floor("ingest", "records_per_second", MIN_INGEST_RATE)


def test_audit_throughput(loaded_vault):
    vault, __, __ = loaded_vault
    start = time.perf_counter()
    report = vault.verify()
    elapsed = time.perf_counter() - start
    rate = report.objects_checked / elapsed
    bench.record(
        "audit",
        objects=report.objects_checked,
        replicas=report.replicas_checked,
        bytes_audited=report.bytes_audited,
        seconds=round(elapsed, 4),
        objects_per_second=round(rate, 1),
        bytes_per_second=round(report.bytes_audited / elapsed, 1),
    )
    print(f"\naudit: {report.objects_checked} objects / "
          f"{report.replicas_checked} replicas in "
          f"{elapsed * 1000:.0f} ms ({rate:.0f} objects/s)")
    assert report.healthy
    bench.floor("audit", "objects_per_second", MIN_AUDIT_RATE)
