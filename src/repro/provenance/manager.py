"""The Provenance Manager (Fig. 1).

"During workflow processing, the Provenance Manager extracts provenance
information from data and workflows, storing such information in the Data
Provenance Repository."

The manager subscribes to a :class:`~repro.workflow.engine.WorkflowEngine`
and, for every finished run, maps the trace into an OPM graph:

* every distinct port value becomes an :class:`Artifact`;
* every processor invocation becomes a :class:`Process` carrying the
  processor's quality annotations (this is how the Workflow Adapter's
  ``Q(reputation)`` statements reach the quality layer);
* the engine's operator becomes the controlling :class:`Agent`;
* ``used`` / ``wasGeneratedBy`` edges follow the bindings,
  ``wasDerivedFrom`` closes outputs over inputs, and
  ``wasTriggeredBy`` follows the data links between processors.

The resulting graph plus the raw trace are persisted in the
:class:`~repro.provenance.repository.ProvenanceRepository`.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.provenance.opm import OPMGraph
from repro.provenance.repository import ProvenanceRepository
from repro.workflow.engine import WorkflowEngine
from repro.workflow.model import Workflow
from repro.workflow.trace import WorkflowTrace

__all__ = ["ProvenanceManager"]


class ProvenanceManager:
    """Captures OPM provenance from workflow runs.

    Parameters
    ----------
    repository:
        Where graphs and traces are persisted.  A fresh in-memory
        repository is created when omitted.
    """

    #: the OPM agent controlling the runs: the generic engine operator
    agent_id = "agent/workflow-engine"

    def __init__(self,
                 repository: ProvenanceRepository | None = None) -> None:
        # `is not None`, not `or`: an *empty* repository is falsy
        # (it has __len__) but must still be used, not replaced.
        self.repository = (repository if repository is not None
                           else ProvenanceRepository())
        self._workflows: dict[str, Workflow] = {}

    # ------------------------------------------------------------------
    # engine integration
    # ------------------------------------------------------------------

    def attach(self, engine: WorkflowEngine) -> None:
        """Subscribe to ``engine``; every finished run is captured."""
        engine.add_listener(self._on_event)

    def _on_event(self, event: str, payload: Mapping[str, Any]) -> None:
        if event == "run_started":
            self._workflows[payload["run_id"]] = payload["workflow"]
        elif event == "run_finished":
            trace: WorkflowTrace = payload["trace"]
            workflow = self._workflows.pop(trace.run_id, None)
            self.capture(trace, workflow)

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------

    def capture(self, trace: WorkflowTrace,
                workflow: Workflow | None = None) -> OPMGraph:
        """Map ``trace`` (+ its workflow's annotations) into an OPM graph
        and persist both."""
        graph = self.build_graph(trace, workflow)
        self.repository.store_run(trace, graph, workflow)
        return graph

    def build_graph(self, trace: WorkflowTrace,
                    workflow: Workflow | None = None) -> OPMGraph:
        """The trace -> OPM mapping, without persistence."""
        account = trace.run_id
        graph = OPMGraph(f"opm/{trace.run_id}")
        graph.add_agent(self.agent_id, label="workflow engine",
                        accounts=[account])

        # Artifacts: one per artifact id observed in the bindings.
        for binding in trace.bindings:
            graph.add_artifact(
                binding.artifact_id,
                label=f"{binding.processor}.{binding.port}",
                value=_safe_value(binding.value),
                accounts=[account],
            )

        # Processes: one per processor run, annotated with quality.
        for run in trace.processor_runs:
            annotations: dict[str, Any] = {
                "kind": run.kind,
                "status": run.status,
                "started": run.started.isoformat(),
                "finished": run.finished.isoformat(),
            }
            if getattr(run, "cached_from", None):
                # the engine replayed this invocation from its result
                # cache; the annotation names the execution that really
                # produced the outputs, so the graph never claims a
                # re-execution that did not happen
                annotations["wasCachedFrom"] = run.cached_from
            if workflow is not None and run.processor in workflow.processors:
                processor = workflow.processor(run.processor)
                quality = processor.quality
                if len(quality):
                    annotations["quality"] = dict(quality)
            process_id = f"{trace.run_id}/{run.processor}"
            graph.add_process(process_id, label=run.processor,
                              accounts=[account], annotations=annotations)
            graph.was_controlled_by(process_id, self.agent_id,
                                    role="operator")

        # Edges from bindings.
        outputs_by_processor: dict[str, list[str]] = {}
        inputs_by_processor: dict[str, list[str]] = {}
        generated_by: dict[str, str] = {}
        for binding in trace.bindings:
            if binding.processor == Workflow.IO:
                continue
            process_id = f"{trace.run_id}/{binding.processor}"
            if not graph.has_node(process_id):
                continue
            if binding.direction == "input":
                graph.used(process_id, binding.artifact_id, role=binding.port)
                inputs_by_processor.setdefault(
                    binding.processor, []
                ).append(binding.artifact_id)
            else:
                graph.was_generated_by(binding.artifact_id, process_id,
                                       role=binding.port)
                outputs_by_processor.setdefault(
                    binding.processor, []
                ).append(binding.artifact_id)
                generated_by[binding.artifact_id] = binding.processor

        # wasDerivedFrom: every output of a processor derives from each of
        # its inputs (the engine does not know finer-grained dependencies).
        for processor, output_ids in outputs_by_processor.items():
            for output_id in output_ids:
                for input_id in inputs_by_processor.get(processor, ()):
                    if input_id != output_id:
                        graph.was_derived_from(output_id, input_id)

        # wasTriggeredBy: processor B consuming an artifact generated by A.
        triggered: set[tuple[str, str]] = set()
        for processor, input_ids in inputs_by_processor.items():
            for input_id in input_ids:
                producer = generated_by.get(input_id)
                if producer and producer != processor:
                    pair = (processor, producer)
                    if pair not in triggered:
                        triggered.add(pair)
                        graph.was_triggered_by(
                            f"{trace.run_id}/{processor}",
                            f"{trace.run_id}/{producer}",
                        )
        return graph


def _safe_value(value: Any) -> Any:
    """Artifact values are stored only when they are small scalars; large
    or structured values are summarized to keep graphs light."""
    if value is None or isinstance(value, (bool, int, float)):
        return value
    if isinstance(value, str):
        return value if len(value) <= 200 else value[:197] + "..."
    if isinstance(value, (list, tuple, set)):
        return f"<{type(value).__name__} of {len(value)} items>"
    if isinstance(value, Mapping):
        return f"<mapping of {len(value)} entries>"
    return f"<{type(value).__name__}>"
