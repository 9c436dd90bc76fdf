"""Continuous ingestion and incremental re-curation.

The paper's conclusion — quality assessment "must be a continuous
task" because both data and workflows decay — is the workload this
package opens.  Batch curation re-reads and re-assesses the whole
collection on every pass; here the steady-state cost is proportional to
the **dirty set** instead:

* :class:`ObservationStream` — a bounded micro-batching buffer with
  explicit backpressure (block-with-timeout or reject) feeding any
  ``add_all``-style sink through the storage engine's bulk write path;
* :class:`IncrementalCurator` — shard-wise quality assessment through
  the workflow engine's tagged result cache: only dirty shards re-run,
  clean shards are reused, and the partial OPM runs are stitched into
  the shared provenance store;
* :class:`RecheckScheduler` — decay-aware re-enqueueing on the
  simulated clock: staleness intervals, availability collapse, and
  workflow decay (via the memoized :class:`~repro.workflow.decay.DecayScanner`).
"""

from repro.streaming.incremental import AssessmentResult, IncrementalCurator
from repro.streaming.scheduler import RecheckScheduler
from repro.streaming.stream import ObservationStream, StreamBackpressure

__all__ = [
    "AssessmentResult",
    "IncrementalCurator",
    "ObservationStream",
    "RecheckScheduler",
    "StreamBackpressure",
]
