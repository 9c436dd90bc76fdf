"""Provenance: OPM graphs, capture, storage.

The paper stores "provenance information from the data source, workflow
description and execution logs" using the Open Provenance Model (OPM)
exported by Taverna.  This package implements:

* the OPM v1.1 core model — artifacts, processes, agents and the five
  causal edge kinds (:mod:`repro.provenance.opm`),
* graph queries: lineage, derivation closure, source discovery
  (:mod:`repro.provenance.graph`),
* the **Provenance Manager** that listens to workflow runs and builds
  OPM graphs, merging workflow quality annotations
  (:mod:`repro.provenance.manager`),
* the **Data Provenance Repository** persisting graphs and traces on the
  storage engine (:mod:`repro.provenance.repository`),
* JSON serialization for OPM graphs
  (:mod:`repro.provenance.serialization`).
"""

from repro.provenance.graph import (
    ancestors,
    derivation_sources,
    descendants,
    lineage_subgraph,
)
from repro.provenance.manager import ProvenanceManager
from repro.provenance.opm import (
    Agent,
    Artifact,
    Edge,
    OPMGraph,
    Process,
)
from repro.provenance.repository import ProvenanceRepository
from repro.provenance.serialization import graph_from_json, graph_to_json
from repro.provenance.store import (
    LineageResult,
    ProvenanceStore,
    TraversalBudget,
)

__all__ = [
    "Agent",
    "Artifact",
    "Edge",
    "LineageResult",
    "OPMGraph",
    "Process",
    "ProvenanceManager",
    "ProvenanceRepository",
    "ProvenanceStore",
    "TraversalBudget",
    "ancestors",
    "derivation_sources",
    "descendants",
    "graph_from_json",
    "graph_to_json",
    "lineage_subgraph",
]
