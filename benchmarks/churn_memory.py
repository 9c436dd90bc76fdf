"""Retained memory of the re-curation churn loop.

Runs the loop of the end-to-end ``recuration_churn`` workload: an
``IncrementalCurator`` over the paper-scale FNJV table (64-record
shards), a cold sweep, then rounds of 16 streamed arrivals, 14
re-determinations by ``update_where`` and an incremental sweep.  Under
``tracemalloc`` (started before the fixture is built) it prints how
much more memory stays allocated, after ``gc.collect()``:

* per round: the growth over ``--rounds`` ordinary rounds, divided by
  their number;
* per catalogue re-issue: the growth over one round that first calls
  ``bump_resource("catalogue")``, minus one ordinary round's share.

Run from the repository root::

    PYTHONPATH=src python benchmarks/churn_memory.py --seed 2013 --rounds 20

Tracing allocations slows the loop several-fold, so the numbers are
sizes, not times.
"""

from __future__ import annotations

import argparse
import gc
import random
import tracemalloc
from typing import Callable

from repro.casestudy.fnjv import FNJVCaseStudy
from repro.curation.pipeline import CollectionSink
from repro.sounds.collection import RECORDINGS
from repro.storage import col
from repro.streaming import IncrementalCurator, ObservationStream
from repro.streaming.incremental import catalogue_resolver

SHARD_SIZE = 64
ARRIVALS = 16
EDITS = 14


def churn_loop(seed: int) -> Callable[[bool], None]:
    """Build the churn fixture, run its cold sweep, and return a
    function that runs one round (re-issuing the catalogue first when
    asked)."""
    study = FNJVCaseStudy(seed)
    database = study.collection.database
    curator = IncrementalCurator(
        database, catalogue_resolver(study.catalogue),
        shard_size=SHARD_SIZE, resource_versions={"catalogue": 1})
    sink = CollectionSink(study.collection)
    stream = ObservationStream(
        sink, capacity=64, batch_size=16,
        on_batch=lambda batch: curator.mark_dirty(sink.last_ids))
    records = len(study.collection)
    names = study.collection.distinct_species()
    rng = random.Random(seed)
    curator.assess()

    def round_(reissue: bool) -> None:
        arrivals = [{**database.get(RECORDINGS, rng.randint(1, records)),
                     "record_id": None} for _ in range(ARRIVALS)]
        base = rng.randint(1, records - EDITS + 1)
        edits = [(record_id, rng.choice(names))
                 for record_id in range(base, base + EDITS)]
        if reissue:
            curator.bump_resource("catalogue")
        stream.ingest(arrivals)
        for record_id, name in edits:
            database.update_where(
                RECORDINGS, col("record_id") == record_id,
                {"species": name, "genus": name.split()[0]})
        curator.mark_dirty(record_id for record_id, _ in edits)
        curator.assess()

    return round_


def retained() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--rounds", type=int, default=20,
                        help="ordinary rounds measured (default 20)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    # trace from the start, so memory a round frees (a replaced cache
    # entry, a superseded row) counts against what it allocates
    tracemalloc.start()
    round_ = churn_loop(args.seed)
    round_(False)  # lazy set-up is not growth
    start = retained()
    for _ in range(args.rounds):
        round_(False)
    rounds_end = retained()
    round_(True)
    reissue_end = retained()
    tracemalloc.stop()
    per_round = (rounds_end - start) / args.rounds
    per_reissue = reissue_end - rounds_end - per_round
    print(f"recuration_churn retained memory: seed {args.seed}, "
          f"{args.rounds} rounds + 1 catalogue re-issue")
    print(f"  per round      {per_round / 1024:10.1f} KiB")
    print(f"  per re-issue   {per_reissue / 2**20:10.2f} MiB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
