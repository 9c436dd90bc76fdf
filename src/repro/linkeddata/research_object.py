"""Research Objects (Bechhofer et al., the paper's ref. [9]).

"Semantically rich aggregations of resources that bring together the
data, methods and people involved in (scientific) investigations."

A :class:`ResearchObject` aggregates, for one investigation:

* the dataset (a collection reference + its record count),
* the method (the workflow specification),
* the execution evidence (run traces + OPM graphs),
* the people (creator, curators),
* quality annotations (the assessment report).

It renders a manifest (triples + dict), checks its own completeness
(an RO missing its method or provenance cannot support reproduction),
and can verify that the aggregated run actually used the aggregated
workflow — the integrity property ROs exist to provide.
"""

from __future__ import annotations

import datetime as _dt
from typing import Any

from repro.core.assessment import AssessmentReport
from repro.errors import ReproError
from repro.linkeddata.triples import IRI, Literal, TripleStore
from repro.linkeddata.vocab import DC, PROV, RDF, REPRO
from repro.provenance.repository import ProvenanceRepository
from repro.sounds.collection import SoundCollection
from repro.workflow.model import Workflow

__all__ = ["ResearchObject"]


class ResearchObject:
    """One investigation's aggregation."""

    def __init__(self, ro_id: str, title: str, creator: str) -> None:
        self.ro_id = ro_id
        self.title = title
        self.creator = creator
        self.created = _dt.date(2013, 11, 12)
        self.collection: SoundCollection | None = None
        self.workflow: Workflow | None = None
        self.provenance: ProvenanceRepository | None = None
        self.run_ids: list[str] = []
        self.quality_report: AssessmentReport | None = None
        self.contributors: list[str] = []

    @property
    def iri(self) -> IRI:
        return REPRO[f"ro/{self.ro_id}"]

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def aggregate_dataset(self, collection: SoundCollection) -> None:
        self.collection = collection

    def aggregate_method(self, workflow: Workflow) -> None:
        self.workflow = workflow

    def aggregate_run(self, provenance: ProvenanceRepository,
                      run_id: str) -> None:
        # keyed membership probe, not a materialized full run listing
        if not provenance.has_run(run_id):
            raise ReproError(f"run {run_id!r} is not in the repository")
        self.provenance = provenance
        if run_id not in self.run_ids:
            self.run_ids.append(run_id)

    def aggregate_quality(self, report: AssessmentReport) -> None:
        self.quality_report = report

    def add_contributor(self, name: str) -> None:
        if name not in self.contributors:
            self.contributors.append(name)

    # ------------------------------------------------------------------
    # completeness & integrity
    # ------------------------------------------------------------------

    def missing_components(self) -> list[str]:
        """What a reproduction-grade RO still lacks."""
        missing = []
        if self.collection is None:
            missing.append("dataset")
        if self.workflow is None:
            missing.append("method (workflow)")
        if not self.run_ids or self.provenance is None:
            missing.append("execution provenance")
        if self.quality_report is None:
            missing.append("quality assessment")
        return missing

    @property
    def reproducible(self) -> bool:
        return not self.missing_components()

    def verify(self) -> list[str]:
        """Integrity check: the aggregated runs must belong to the
        aggregated workflow, and the quality report to one of the runs.
        Returns a list of problems (empty = sound)."""
        problems = list(self.missing_components())
        if self.provenance is not None and self.workflow is not None:
            for run_id in self.run_ids:
                trace = self.provenance.trace_for(run_id)
                if trace.workflow_name != self.workflow.name:
                    problems.append(
                        f"run {run_id} executed workflow "
                        f"{trace.workflow_name!r}, not the aggregated "
                        f"{self.workflow.name!r}"
                    )
        if (self.quality_report is not None
                and self.quality_report.run_id is not None
                and self.run_ids
                and self.quality_report.run_id not in self.run_ids):
            problems.append(
                f"quality report assesses run "
                f"{self.quality_report.run_id!r}, which is not aggregated"
            )
        return problems

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------

    def manifest(self) -> dict[str, Any]:
        return {
            "id": self.ro_id,
            "title": self.title,
            "creator": self.creator,
            "created": self.created.isoformat(),
            "contributors": list(self.contributors),
            "dataset": None if self.collection is None else {
                "name": self.collection.name,
                "records": len(self.collection),
            },
            "method": None if self.workflow is None else {
                "workflow": self.workflow.name,
                "processors": sorted(self.workflow.processors),
            },
            "runs": list(self.run_ids),
            "quality": None if self.quality_report is None else
            self.quality_report.as_dict(),
            "reproducible": self.reproducible,
        }

    def to_triples(self, store: TripleStore | None = None) -> TripleStore:
        store = store if store is not None else TripleStore()
        subject = self.iri
        store.add(subject, RDF.type, REPRO.ResearchObject)
        store.add(subject, DC.title, Literal(self.title))
        store.add(subject, DC.creator, Literal(self.creator))
        store.add(subject, DC.created, Literal(self.created.isoformat()))
        for contributor in self.contributors:
            store.add(subject, DC.contributor, Literal(contributor))
        if self.collection is not None:
            store.add(subject, REPRO.aggregatesDataset,
                      REPRO[f"collection/{self.collection.name}"])
        if self.workflow is not None:
            store.add(subject, REPRO.aggregatesMethod,
                      REPRO[f"workflow/{self.workflow.name}"])
        for run_id in self.run_ids:
            store.add(subject, PROV.hadPrimarySource,
                      REPRO[f"prov/{run_id}"])
        return store

    def __repr__(self) -> str:
        status = "reproducible" if self.reproducible else (
            f"missing: {', '.join(self.missing_components())}")
        return f"ResearchObject({self.ro_id}, {status})"
