"""Archival provenance store: interned columnar segments + bounded
lineage queries.

Per-run OPM object graphs do not survive archival scale — a million
runs of Python dicts and node objects exhaust memory long before they
exhaust usefulness.  This package keeps the *cross-run skeleton* of
the provenance record in a form sized for decades of appends:

* :mod:`~repro.provenance.store.interning` — every id dictionary-
  encoded to a dense int, paid for once;
* :mod:`~repro.provenance.store.columnar` — immutable sealed segments
  of flat int columns with CSR forward/backward adjacency per OPM
  edge kind, plus the mutable active tail;
* :mod:`~repro.provenance.store.queries` — iterative frontier
  traversals under explicit node/depth budgets;
* :mod:`~repro.provenance.store.store` — the
  :class:`~repro.provenance.store.store.ProvenanceStore` facade: an
  in-memory index over the repository's run rows, rebuilt from them on
  attach, exposing ``ancestors`` / ``descendants`` /
  ``cached_from_chain`` / ``runs_for_artifact`` / ``derived_objects``.
"""

from repro.provenance.store.columnar import (
    CACHED_FROM,
    CSRIndex,
    EDGE_CODES,
    EDGE_NAMES,
    KIND_CODES,
    SealedSegment,
    SegmentBuilder,
)
from repro.provenance.store.interning import StringPool
from repro.provenance.store.queries import (
    LineageResult,
    TraversalBudget,
)
from repro.provenance.store.store import (
    DEFAULT_RUNS_PER_SEGMENT,
    ProvenanceStore,
)

__all__ = [
    "CACHED_FROM",
    "CSRIndex",
    "DEFAULT_RUNS_PER_SEGMENT",
    "EDGE_CODES",
    "EDGE_NAMES",
    "KIND_CODES",
    "LineageResult",
    "ProvenanceStore",
    "SealedSegment",
    "SegmentBuilder",
    "StringPool",
    "TraversalBudget",
]
