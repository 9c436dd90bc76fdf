"""The FNJV case study, end to end.

One call builds the whole Fig. 3 instance — synthetic FNJV collection,
simulated Catalogue of Life service (reputation 1.0, availability 0.9),
workflow engine, Provenance Manager, Data Quality Manager — runs the
five-step process of §IV-C and hands back the paper's numbers:

* Fig. 2 — 11 898 records processed, 1 929 distinct names, 134 outdated;
* §IV-C — accuracy 93 %, reputation 1.0, availability 0.9.
"""

from __future__ import annotations

from typing import Any

from repro.core.assessment import AssessmentReport
from repro.core.manager import DataQualityManager
from repro.curation.pipeline import CurationPipeline, PipelineReport
from repro.curation.species_check import SpeciesCheckResult
from repro.geo.climate import ClimateArchive
from repro.geo.gazetteer import Gazetteer
from repro.provenance.manager import ProvenanceManager
from repro.sounds.generator import (
    CollectionConfig,
    GroundTruth,
    generate_collection,
)
from repro.taxonomy.catalogue import CatalogueOfLife
from repro.taxonomy.service import CatalogueService
from repro.workflow.engine import WorkflowEngine

__all__ = ["PAPER_FIGURES", "CaseStudyResults", "FNJVCaseStudy"]

#: the quantitative claims of §IV, used for paper-vs-measured reporting
PAPER_FIGURES: dict[str, Any] = {
    "records_processed": 11_898,
    "distinct_species_names": 1_929,
    "outdated_names": 134,
    "outdated_fraction": 0.07,
    "accuracy": 0.93,
    "reputation": 1.0,
    "availability": 0.9,
}


class CaseStudyResults:
    """Everything one reproduction run produced."""

    def __init__(self, check: SpeciesCheckResult,
                 quality: AssessmentReport,
                 pipeline: PipelineReport,
                 truth: GroundTruth) -> None:
        self.check = check
        self.quality = quality
        self.pipeline = pipeline
        self.truth = truth

    def measured_figures(self) -> dict[str, Any]:
        """The measured counterparts of :data:`PAPER_FIGURES`."""
        return {
            "records_processed": self.check.records_processed,
            "distinct_species_names": self.check.distinct_names,
            "outdated_names": self.check.outdated_names,
            "outdated_fraction": round(self.check.outdated_fraction, 3),
            "accuracy": round(self.quality.value("accuracy"), 3),
            "reputation": self.quality.value("reputation"),
            "availability": self.quality.value("availability"),
        }

    def __repr__(self) -> str:
        return f"CaseStudyResults({self.measured_figures()})"


class FNJVCaseStudy:
    """Builder + runner for the whole case study.

    Parameters
    ----------
    seed:
        Master seed; the default (2013) reproduces the paper's numbers
        exactly.
    config:
        Collection generation parameters (paper scale by default).

    The Catalogue service has the paper's profile (Listing 1):
    availability and reputation as in :data:`PAPER_FIGURES`.
    """

    def __init__(self, seed: int = 2013,
                 config: CollectionConfig | None = None) -> None:
        self.seed = seed
        self.config = config or CollectionConfig(seed=seed)
        self.catalogue = CatalogueOfLife()
        self.gazetteer = Gazetteer(seed=seed)
        self.climate = ClimateArchive()
        self.collection, self.truth = generate_collection(
            self.catalogue, self.gazetteer, self.climate, self.config,
        )
        self.service = CatalogueService(
            self.catalogue, availability=PAPER_FIGURES["availability"],
            reputation=PAPER_FIGURES["reputation"], seed=seed,
        )
        self.engine = WorkflowEngine()
        self.provenance = ProvenanceManager()
        self.pipeline = CurationPipeline(
            self.collection, self.service,
            gazetteer=self.gazetteer, climate=self.climate,
            engine=self.engine, provenance=self.provenance,
        )
        self.quality_manager = DataQualityManager(
            provenance=self.provenance.repository,
        )

    # ------------------------------------------------------------------
    # runs
    # ------------------------------------------------------------------

    def run_detection_only(self) -> SpeciesCheckResult:
        """Stage 1.1 (so names are syntactically clean) + the detection
        workflow — the minimal path to the Fig. 2 numbers."""
        from repro.curation.cleaning import MetadataCleaner

        MetadataCleaner(self.pipeline.history).run()
        return self.pipeline.checker.run()

    def assess_quality(self, run_id: str) -> AssessmentReport:
        """The §IV-C quality report for a captured run."""
        return self.quality_manager.assess_species_check_run(
            run_id, collection=self.collection,
        )

    def run(self, full_pipeline: bool = False) -> CaseStudyResults:
        """The five-step §IV-C process (optionally the full stage 1+2)."""
        if full_pipeline:
            pipeline_report = self.pipeline.run_all()
            check = pipeline_report.species_check
            assert check is not None
        else:
            check = self.run_detection_only()
            pipeline_report = PipelineReport()
            pipeline_report.species_check = check
        quality = self.assess_quality(check.run_id)
        return CaseStudyResults(check, quality, pipeline_report, self.truth)
