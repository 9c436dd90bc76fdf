"""Infrastructure benchmark: the federated multi-site vault.

Measures the two claims the federation design rests on and records the
numbers in ``BENCH_federation.json`` at the repository root:

a. **Merkle sync vs full sweep** — detecting one divergent object among
   10 000 by diffing Merkle manifests must beat re-hashing the site's
   every payload by a wide margin (the floor is 5x; CI treats a dip as
   advisory, ``REPRO_BENCH_STRICT=1`` enforces it locally).
b. **Erasure vs replication** — at equal-or-better modeled durability,
   4-of-8 erasure coding must store fewer bytes than 3-way replication
   for the same objects.  This is a relation between measured numbers,
   not a wall-clock race, so it is always enforced.
"""

from __future__ import annotations

import time

import pytest

from harness import Bench
from repro.archive.federation import FederatedVault
from repro.archive.merkle import MerkleManifest
from repro.archive.placement import PlacementPolicy, RedundancyScheme
from repro.archive.sites import Site, SiteTopology
from repro.hashing import sha256_hex
from repro.telemetry import Telemetry

pytestmark = pytest.mark.smoke

N_OBJECTS = 10_000
#: floor for the Merkle-sync speedup; enforced only under
#: REPRO_BENCH_STRICT=1 (shared CI runners make wall-clock advisory)
MIN_SYNC_SPEEDUP = 5.0

SITE_LOSS_PROBABILITY = 0.05

bench = Bench("federation", objects=N_OBJECTS,
              site_loss_probability=SITE_LOSS_PROBABILITY)


def test_merkle_sync_vs_full_sweep():
    """One rotten object among 10k: manifest diff vs re-hash-everything."""
    site = Site("bench-site", "region-1")
    expected = MerkleManifest()
    digests = []
    for i in range(N_OBJECTS):
        digest = site.put(f'{{"object": {i}}}')
        expected.set(digest, digest)
        digests.append(digest)

    # steady state: both manifests warm (sites maintain theirs
    # incrementally, the federation maintains the expected one)
    assert site.manifest_root() == expected.root

    victim = digests[N_OBJECTS // 2]
    site.corrupt(victim)
    site.scrub([victim])  # the sampling audit's job, here targeted
    assert site.manifest_root() != expected.root

    # the full sweep: re-hash every stored payload
    start = time.perf_counter()
    rotten = [d for d in site.digests()
              if sha256_hex(site.store.get(d)) != d]
    sweep_seconds = time.perf_counter() - start
    assert rotten == [victim]

    # the Merkle walk, repeated so the measurement is not one syscall
    iterations = 50
    start = time.perf_counter()
    for __ in range(iterations):
        diff = site.manifest().diff(expected)
    diff_seconds = (time.perf_counter() - start) / iterations
    assert diff.digests == [victim]

    speedup = round(sweep_seconds / diff_seconds, 1)
    bench.record(
        "merkle_sync",
        objects=N_OBJECTS,
        divergent=1,
        full_sweep_seconds=round(sweep_seconds, 4),
        merkle_diff_seconds=round(diff_seconds, 6),
        nodes_compared=diff.nodes_compared,
        speedup=speedup,
    )
    print(f"\nmerkle sync: full sweep {sweep_seconds * 1000:.0f} ms vs "
          f"diff {diff_seconds * 1000:.2f} ms over {N_OBJECTS} objects "
          f"= {speedup}x ({diff.nodes_compared} nodes compared)")
    bench.floor("merkle_sync", "speedup", MIN_SYNC_SPEEDUP, strict=True)


def test_erasure_cheaper_than_replication_at_equal_durability():
    """The same objects stored both ways; erasure must win both axes."""
    def topology():
        return SiteTopology([
            Site(f"s{i}", f"region-{i % 4}", latency_ms=5 + i)
            for i in range(8)
        ])

    erasure_scheme = RedundancyScheme("erasure", k=4, n=8)
    replica_scheme = RedundancyScheme("full_replica", copies=3)
    payloads = ['{"record": %d, "pad": "%s"}' % (i, "x" * 400)
                for i in range(200)]

    stored: dict[str, dict[str, float]] = {}
    for label, scheme in (("erasure", erasure_scheme),
                          ("replica_x3", replica_scheme)):
        federation = FederatedVault(
            topology(),
            policy=PlacementPolicy(level_schemes={1: scheme}),
            telemetry=Telemetry())
        start = time.perf_counter()
        for payload in payloads:
            federation.store(payload, level=1)
        elapsed = time.perf_counter() - start
        cost = federation.storage_cost()[scheme.kind]
        stored[label] = {
            "objects": cost["objects"],
            "logical_bytes": cost["logical_bytes"],
            "stored_bytes": cost["stored_bytes"],
            "overhead_factor": cost["overhead_factor"],
            "durability": scheme.durability(SITE_LOSS_PROBABILITY),
            "store_seconds": round(elapsed, 4),
        }

    erasure, replica = stored["erasure"], stored["replica_x3"]
    bench.record("erasure_vs_replication", **stored)
    print(f"\nerasure 4-of-8: {erasure['stored_bytes']:.0f} B "
          f"(x{erasure['overhead_factor']}) at durability "
          f"{erasure['durability']:.6f}\n"
          f"replica x3:     {replica['stored_bytes']:.0f} B "
          f"(x{replica['overhead_factor']}) at durability "
          f"{replica['durability']:.6f}")

    # the relation the vault's per-level policy is built on: fewer
    # stored bytes AND at-least-equal modeled durability
    assert erasure["stored_bytes"] < replica["stored_bytes"]
    assert erasure["durability"] >= replica["durability"]
    assert erasure["logical_bytes"] == replica["logical_bytes"]
