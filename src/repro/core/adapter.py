"""The Workflow Adapter (box B of Fig. 1).

"The Workflow Adapter is a module that allows experts to add quality
information to a workflow specification ... without changing the
workflow model."

The adapter's contract is enforced, not just promised: every mutation
goes through :meth:`WorkflowAdapter.add_quality_annotation`, which
fingerprints the workflow's *dataflow structure* before and after and
raises if anything but annotations changed.  This is the Process
Designer's tool.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import UnknownProcessorError, WorkflowError
from repro.hashing import canonical_digest
from repro.workflow.annotations import AnnotationAssertion, QualityAnnotation
from repro.workflow.model import Workflow

__all__ = ["WorkflowAdapter", "structure_fingerprint"]


def structure_fingerprint(workflow: Workflow) -> str:
    """A hash of the workflow's dataflow structure — processors, ports,
    configs and links — excluding annotations."""
    structure = {
        "name": workflow.name,
        "processors": [
            {
                "name": processor.name,
                "kind": processor.kind,
                "inputs": sorted(processor.input_ports),
                "outputs": sorted(processor.output_ports),
                "config": processor.config,
            }
            for processor in sorted(workflow.processors.values(),
                                    key=lambda p: p.name)
        ],
        "links": sorted(
            (link.source, link.source_port, link.sink, link.sink_port)
            for link in workflow.links
        ),
    }
    return canonical_digest(structure)


class WorkflowAdapter:
    """Attaches quality annotations to workflows.

    Parameters
    ----------
    creator:
        Recorded on every assertion (the expert's identity).

    Every assertion is dated at the Listing 1 instant (the
    :class:`~repro.workflow.annotations.AnnotationAssertion` default),
    keeping runs deterministic.
    """

    def __init__(self, creator: str = "process designer") -> None:
        self.creator = creator

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def add_quality_annotation(self, workflow: Workflow,
                               processor_name: str | None,
                               quality: Mapping[str, float],
                               note: str = "") -> AnnotationAssertion:
        """Attach ``Q(dimension): value`` statements.

        ``processor_name=None`` annotates the workflow itself.  The
        workflow's dataflow structure is fingerprinted around the edit;
        a change aborts with :class:`~repro.errors.WorkflowError`.
        """
        if not quality:
            raise WorkflowError("refusing to add an empty quality annotation")
        before = structure_fingerprint(workflow)
        text = QualityAnnotation(dict(quality)).to_text()
        if note:
            text = f"{note}\n{text}"
        assertion = AnnotationAssertion(text, creator=self.creator)
        if processor_name is None:
            workflow.annotate(assertion)
        else:
            workflow.processor(processor_name).annotate(assertion)
        after = structure_fingerprint(workflow)
        if before != after:
            raise WorkflowError(
                "annotation changed the workflow structure — adapter "
                "contract violated"
            )
        return assertion

    def annotate_source(self, workflow: Workflow, processor_name: str,
                        reputation: float, availability: float,
                        note: str = "") -> AnnotationAssertion:
        """The Listing 1 pattern: declare an external source's
        reputation and availability on its processor."""
        return self.add_quality_annotation(
            workflow, processor_name,
            {"reputation": reputation, "availability": availability},
            note=note,
        )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def quality_of(self, workflow: Workflow,
                   processor_name: str | None = None) -> QualityAnnotation:
        """The merged quality statements of a processor (or the
        workflow)."""
        if processor_name is None:
            return workflow.quality
        return workflow.processor(processor_name).quality

    def annotated_processors(self, workflow: Workflow) -> dict[str, QualityAnnotation]:
        """Every processor that carries at least one Q statement."""
        result: dict[str, QualityAnnotation] = {}
        for name, processor in workflow.processors.items():
            quality = processor.quality
            if len(quality):
                result[name] = quality
        return result

    def strip_annotations(self, workflow: Workflow) -> int:
        """Remove every annotation (used in the A1 ablation); returns
        how many were removed."""
        removed = len(workflow.annotations)
        workflow.annotations.clear()
        for processor in workflow.processors.values():
            removed += len(processor.annotations)
            processor.annotations.clear()
        return removed

    def ensure_quality_aware(self, workflow: Workflow,
                             processor_name: str) -> None:
        """Assert that ``processor_name`` carries quality statements —
        used as a pre-run check for quality-aware workflows."""
        try:
            processor = workflow.processor(processor_name)
        except UnknownProcessorError:
            raise
        if not len(processor.quality):
            raise WorkflowError(
                f"processor {processor_name!r} has no quality annotations; "
                "run the Workflow Adapter first"
            )
