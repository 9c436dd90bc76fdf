"""The Data Provenance Repository (Fig. 1).

Persists, per workflow run:

* the raw execution trace (JSON),
* the OPM graph (JSON),
* the workflow description it ran against (JSON, optional),

on the storage engine, and offers the queries the Data Quality Manager
needs: the graph for a run, the runs of a workflow, and the quality
annotations of the processes involved in producing an output.

Values are stored by content.  Every list-valued binding value,
workflow input and workflow output of a trace, and the workflow JSON,
lives once in the ``provenance_values`` table (compressed) under the
SHA-256 of its canonical JSON (:func:`~repro.hashing.canonical_digest`);
the run row keeps a trace *skeleton* with ``null`` in each such slot
and the slots' digests under one extra top-level key, and a digest in
place of the workflow JSON.  A run that re-reads unchanged data
therefore adds no copy of it.  :meth:`ProvenanceRepository.trace_for` and
:meth:`~ProvenanceRepository.workflow_for` rebuild the documents
byte for byte, and still read rows written with the values inline.

Every stored run is also ingested into the archival
:class:`~repro.provenance.store.ProvenanceStore`, an in-memory index
rebuilt from the run rows on attach, so cross-run lineage
(``ancestors``/``descendants`` of an artifact, cache-replay chains,
"which vault objects derive from run X") is answered by interned
columnar indexes instead of re-parsing every graph.
"""

from __future__ import annotations

import base64
import json
import zlib
from typing import Any, Iterator

from repro.errors import ProvenanceError
from repro.hashing import canonical_json, sha256_hex
from repro.provenance.opm import OPMGraph
from repro.provenance.serialization import graph_from_json, graph_to_json
from repro.provenance.store import ProvenanceStore
from repro.storage import Column, Database, TableSchema, col
from repro.storage import column_types as ct
from repro.workflow.model import Workflow
from repro.workflow.serialization import workflow_from_json, workflow_to_json
from repro.workflow.trace import WorkflowTrace

__all__ = ["ProvenanceRepository"]

_RUNS = "provenance_runs"
_VALUES = "provenance_values"
#: top-level key of a stored trace skeleton: ``{section: {slot: digest}}``
#: for every value taken out of it (no trace document has this key, so
#: rows written with inline values read unchanged)
_DIGESTS = "value_digests"


def _slots(document: dict[str, Any]
           ) -> Iterator[tuple[str, str, dict[str, Any], str]]:
    """``(section, slot, holder, key)`` for every value of a trace
    document: each workflow input and output, and each binding's
    value (slot = its position)."""
    for section in ("inputs", "outputs"):
        for port in document[section]:
            yield section, port, document[section], port
    for position, binding in enumerate(document["bindings"]):
        yield "bindings", str(position), binding, "value"


def _put(values: dict[str, str], text: str) -> str:
    """Collect ``text`` for the values table; returns its digest."""
    digest = sha256_hex(text)
    values.setdefault(digest, text)
    return digest


def _pack(text: str) -> str:
    """The stored form of a value's JSON: zlib-compressed (level 1, the
    fastest) and base64-encoded, so the column stays ASCII text."""
    return base64.b64encode(zlib.compress(text.encode(), 1)).decode("ascii")


def _unpack(stored: str) -> str:
    return zlib.decompress(base64.b64decode(stored)).decode()


class ProvenanceRepository:
    """Run-indexed provenance storage on a :class:`~repro.storage.Database`.

    Parameters
    ----------
    database:
        Storage engine; a fresh in-memory one when omitted.  The
        archival :class:`~repro.provenance.store.ProvenanceStore`
        (``self.store``) indexes the runs already on it.
    """

    def __init__(self, database: Database | None = None) -> None:
        self.database = database or Database("provenance_repository")
        if not self.database.has_table(_VALUES):
            self.database.create_table(TableSchema(_VALUES, [
                Column("digest", ct.TEXT),
                Column("value", ct.TEXT, nullable=False),
            ], primary_key="digest"))
        if not self.database.has_table(_RUNS):
            self.database.create_table(TableSchema(_RUNS, [
                Column("run_id", ct.TEXT),
                Column("workflow_name", ct.TEXT, nullable=False),
                Column("status", ct.TEXT, nullable=False),
                Column("started", ct.DATETIME),
                Column("finished", ct.DATETIME),
                Column("trace", ct.TEXT, nullable=False),
                Column("graph", ct.TEXT, nullable=False),
                Column("workflow", ct.TEXT),
            ], primary_key="run_id"))
            self.database.create_index(_RUNS, "workflow_name", "hash")
        self.store = ProvenanceStore()
        self._sync_store()

    def _sync_store(self) -> None:
        """Index every run persisted here, in run-id order, from its
        row's (latest) graph — the store keeps nothing of its own, so
        this is how a repository attached to a recovered database gets
        its lineage index back."""
        if not self.database.count(_RUNS):
            return  # a fresh database: skip the (counted) scan
        for row in self.database.query(_RUNS).select(
                "run_id", "graph").order_by("run_id").all():
            self.store.ingest_graph(row["run_id"],
                                    graph_from_json(row["graph"]))

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def store_run(self, trace: WorkflowTrace, graph: OPMGraph,
                  workflow: Workflow | None = None) -> None:
        """Persist one run.  Storing the same run id twice replaces it
        (re-capture after a retry).

        The run's values go in first, so a crash before the run row
        lands leaves at most unreferenced values, never a run row that
        references a missing one.
        """
        values: dict[str, str] = {}
        skeleton = trace.to_dict()
        digests: dict[str, dict[str, str]] = {
            "inputs": {}, "outputs": {}, "bindings": {}}
        for section, slot, holder, key in _slots(skeleton):
            value = holder[key]
            if isinstance(value, (list, tuple)):
                digests[section][slot] = _put(values, canonical_json(value))
                holder[key] = None
        skeleton[_DIGESTS] = digests
        row = {
            "run_id": trace.run_id,
            "workflow_name": trace.workflow_name,
            "status": trace.status,
            "started": trace.started,
            "finished": trace.finished,
            "trace": canonical_json(skeleton),
            "graph": graph_to_json(graph),
            "workflow": None if workflow is None
            else _put(values, workflow_to_json(workflow, indent=None)),
        }
        database = self.database
        # probe and insert as one step: a concurrent store_run of the
        # same value must find it, not collide with it
        with database.exclusive():
            fresh = [
                {"digest": digest, "value": _pack(text)}
                for digest, text in values.items()
                if database.find(_VALUES, digest) is None
            ]
            if fresh:
                database.bulk_load(_VALUES, fresh)
        database.upsert(_RUNS, row)
        # append-only archive: a re-capture keeps the first archived
        # skeleton (ingest_graph counts the skip)
        self.store.ingest_graph(trace.run_id, graph)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def run_ids(self, workflow_name: str | None = None) -> list[str]:
        query = self.database.query(_RUNS)
        if workflow_name is not None:
            query = query.where(col("workflow_name") == workflow_name)
        return sorted(query.values("run_id"))

    def has_run(self, run_id: str) -> bool:
        """Primary-key membership probe (no run-list materialization)."""
        return self.database.find(_RUNS, run_id) is not None

    def run_count(self) -> int:
        """How many runs are archived — read from the store's counters,
        so no table scan is needed."""
        return self.store.run_count()

    def runs_for_artifact(self, artifact_id: str) -> list[str]:
        """Every run whose OPM graph mentions ``artifact_id``, served by
        the store's backward (artifact -> runs) index."""
        return self.store.runs_for_artifact(artifact_id)

    def latest_run_id(self, workflow_name: str) -> str | None:
        ids = self.run_ids(workflow_name)
        return ids[-1] if ids else None

    def _row(self, run_id: str) -> dict[str, Any]:
        row = self.database.find(_RUNS, run_id)
        if row is None:
            raise ProvenanceError(f"no provenance for run {run_id!r}")
        return row

    def _value(self, digest: str) -> str:
        row = self.database.find(_VALUES, digest)
        if row is None:
            raise ProvenanceError(f"no provenance value {digest!r}")
        return _unpack(row["value"])

    def graph_for(self, run_id: str) -> OPMGraph:
        return graph_from_json(self._row(run_id)["graph"])

    def trace_for(self, run_id: str) -> WorkflowTrace:
        document = json.loads(self._row(run_id)["trace"])
        digests = document.pop(_DIGESTS, None)
        if digests is not None:
            for section, slot, holder, key in _slots(document):
                digest = digests[section].get(slot)
                if digest is not None:
                    holder[key] = json.loads(self._value(digest))
        return WorkflowTrace.from_dict(document)

    def workflow_for(self, run_id: str) -> Workflow | None:
        document = self._row(run_id)["workflow"]
        if document is None:
            return None
        if not document.startswith("{"):
            # a digest; rows written with the JSON inline hold an object
            document = self._value(document)
        return workflow_from_json(document)

    def runs(self, workflow_name: str | None = None) -> Iterator[dict[str, Any]]:
        """Run metadata rows (no heavy payloads)."""
        query = self.database.query(_RUNS).select(
            "run_id", "workflow_name", "status", "started", "finished"
        )
        if workflow_name is not None:
            query = query.where(col("workflow_name") == workflow_name)
        yield from query.order_by("run_id").all()

    # ------------------------------------------------------------------
    # quality-oriented queries
    # ------------------------------------------------------------------

    def process_annotations(self, run_id: str) -> dict[str, dict[str, Any]]:
        """``{processor label: quality annotation dict}`` for a run.

        Only processes that actually carry a ``quality`` annotation appear.
        This is the provenance-side half of the paper's quality assessment:
        the reputation/availability the Workflow Adapter attached travel
        with the provenance, not with the data.
        """
        graph = self.graph_for(run_id)
        result: dict[str, dict[str, Any]] = {}
        for process in graph.nodes("process"):
            quality = process.annotations.get("quality")
            if quality:
                result[process.label] = dict(quality)
        return result

    def __len__(self) -> int:
        return self.database.count(_RUNS)
