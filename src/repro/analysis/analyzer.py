"""The analyzer facade: run rule families over in-memory objects.

:class:`Analyzer` is the one entry point: it owns a (copied) rule
registry, an optional suppression :class:`~repro.analysis.registry.Baseline`
and a telemetry sink, and exposes one ``analyze_*`` method per subject
kind plus :meth:`analyze_bundle` for composite lint documents.

Every pass is purely observational — subjects are snapshotted into
read-only views (:class:`GraphState`, :class:`SchemaSet`,
:class:`VaultState`) or traversed without mutation, a property pinned
by the test suite.

Telemetry: each family run increments ``analysis_runs_total{family=}``;
each surviving diagnostic increments
``analysis_diagnostics_total{rule=,severity=}``; baseline-suppressed
findings land in ``analysis_suppressed_total``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping

from repro.analysis.diagnostics import AnalysisReport
from repro.analysis.provenance_rules import GraphState
from repro.analysis.registry import Baseline, RuleRegistry, default_registry
from repro.analysis.storage_rules import SchemaSet
from repro.analysis.store_rules import StoreState
from repro.analysis.vault_rules import VaultState
from repro.analysis.workflow_rules import workflow_context
from repro.errors import AnalysisError
from repro.provenance.opm import OPMGraph
from repro.workflow.model import Workflow

__all__ = ["Analyzer", "sniff_document"]


def sniff_document(document: Mapping[str, Any]) -> str:
    """Classify a JSON document: ``bundle``, ``workflow`` or ``graph``.

    A *bundle* carries any of the composite keys (``workflow``,
    ``workflows``, ``graph``, ``graphs``, ``tables``, ``vault``); a
    bare workflow document has ``processors``/``links``; a bare OPM
    document has ``nodes``/``edges``.
    """
    bundle_keys = {"workflow", "workflows", "graph", "graphs",
                   "tables", "vault", "provstore"}
    if bundle_keys & set(document):
        return "bundle"
    if "processors" in document or "links" in document:
        return "workflow"
    if "nodes" in document or "edges" in document:
        return "graph"
    raise AnalysisError(
        "unrecognised lint document: expected a bundle "
        "(workflow/graph/tables/vault keys), a workflow document "
        "(processors/links) or an OPM document (nodes/edges)"
    )


class Analyzer:
    """Runs enabled rules of each family over analyzable subjects.

    Parameters
    ----------
    registry:
        Rule registry; a copy of the default when omitted, so
        enable/disable on :attr:`registry` stays local to this
        analyzer.
    telemetry:
        Metrics sink; the process-wide default when omitted.
    baseline:
        Optional suppression baseline applied to every pass.
    """

    def __init__(self, registry: RuleRegistry | None = None,
                 telemetry: Any | None = None,
                 baseline: Baseline | None = None) -> None:
        self.registry = (registry.copy() if registry is not None
                         else default_registry().copy())
        if telemetry is None:
            from repro.telemetry import get_telemetry
            telemetry = get_telemetry()
        self.telemetry = telemetry
        self.baseline = baseline

    # ------------------------------------------------------------------
    # core pass
    # ------------------------------------------------------------------

    def _run_family(self, family: str, subject: Any,
                    context: dict) -> AnalysisReport:
        metrics = self.telemetry.metrics
        metrics.counter("analysis_runs_total", family=family).inc()
        report = AnalysisReport()
        report.families_run.append(family)
        for rule in self.registry.enabled_rules(family):
            for diagnostic in rule.run(subject, context):
                if self.baseline is not None \
                        and self.baseline.suppresses(diagnostic):
                    report.suppressed += 1
                    metrics.counter("analysis_suppressed_total").inc()
                    continue
                report.diagnostics.append(diagnostic)
                metrics.counter("analysis_diagnostics_total",
                                rule=diagnostic.rule_id,
                                severity=diagnostic.severity).inc()
        return report

    # ------------------------------------------------------------------
    # per-subject passes
    # ------------------------------------------------------------------

    def analyze_workflow(self, workflow: Workflow,
                         processor_registry: Any = None) -> AnalysisReport:
        """Run the workflow rules on one workflow definition."""
        context = workflow_context(processor_registry)
        return self._run_family("workflow", workflow, context)

    def analyze_graph(self,
                      graph: OPMGraph | GraphState) -> AnalysisReport:
        """Run the provenance rules on one OPM graph (or state view)."""
        state = (graph if isinstance(graph, GraphState)
                 else GraphState.from_graph(graph))
        return self._run_family("provenance", state, {})

    def analyze_storage(self,
                        database: Any | SchemaSet) -> AnalysisReport:
        """Run the storage rules on a database (or schema snapshot)."""
        schemas = (database if isinstance(database, SchemaSet)
                   else SchemaSet.from_database(database))
        return self._run_family("storage", schemas, {})

    def analyze_store(self,
                      store: Any | StoreState) -> AnalysisReport:
        """Run the provenance-store rules on an archival store (or
        state snapshot)."""
        state = (store if isinstance(store, StoreState)
                 else StoreState.from_store(store))
        return self._run_family("provstore", state, {})

    def analyze_vault(self, vault: Any | VaultState) -> AnalysisReport:
        """Run the vault rules on a vault (or state snapshot)."""
        state = (vault if isinstance(vault, VaultState)
                 else VaultState.from_vault(vault))
        return self._run_family("vault", state, {})

    def analyze_code(self, subject: Any,
                     display_root: str | None = None) -> AnalysisReport:
        """Run the source-code rules (DET/LK/HY families).

        ``subject`` is either a prepared
        :class:`~repro.analysis.code.CodebaseState` or an iterable of
        paths (files and/or directories) to load.  Unreadable paths
        raise :class:`~repro.errors.AnalysisError` — the CLI maps that
        to exit code 2.
        """
        from repro.analysis.code import CodebaseState
        if isinstance(subject, CodebaseState):
            state = subject
        else:
            paths = ([subject] if isinstance(subject, (str, Path))
                     else list(subject))
            state = CodebaseState.from_paths(paths,
                                             display_root=display_root)
        metrics = self.telemetry.metrics
        metrics.counter("analysis_code_runs_total").inc()
        metrics.counter("analysis_code_files_total").inc(len(state.files))
        metrics.counter("analysis_code_functions_total").inc(
            len(state.functions))
        report = self._run_family("code", state, {})
        for diagnostic in report.diagnostics:
            metrics.counter("analysis_code_findings_total",
                            severity=diagnostic.severity).inc()
        return report

    # ------------------------------------------------------------------
    # composite documents
    # ------------------------------------------------------------------

    def analyze_document(self, document: Mapping[str, Any],
                         source: str = "") -> AnalysisReport:
        """Analyze one JSON document of any recognised shape."""
        shape = sniff_document(document)
        if shape == "workflow":
            report = self.analyze_workflow(Workflow.from_dict(document))
        elif shape == "graph":
            report = self.analyze_graph(GraphState.from_dict(document))
        else:
            report = self.analyze_bundle(document)
        if source:
            for diagnostic in report.diagnostics:
                diagnostic.source = source
        return report

    def analyze_bundle(self,
                       bundle: Mapping[str, Any]) -> AnalysisReport:
        """Analyze a composite lint bundle.

        Recognised keys: ``workflow`` (one document) / ``workflows``
        (list), ``graph``/``graphs``, ``tables`` (a SchemaSet
        document), ``vault`` (a VaultState document), ``provstore``
        (a StoreState document).
        """
        report = AnalysisReport()
        workflows = list(bundle.get("workflows", ()))
        if bundle.get("workflow") is not None:
            workflows.insert(0, bundle["workflow"])
        for document in workflows:
            report.merge(self.analyze_workflow(Workflow.from_dict(document)))
        graphs = list(bundle.get("graphs", ()))
        if bundle.get("graph") is not None:
            graphs.insert(0, bundle["graph"])
        for document in graphs:
            report.merge(self.analyze_graph(GraphState.from_dict(document)))
        if bundle.get("tables") is not None:
            report.merge(self.analyze_storage(SchemaSet.from_dict(bundle)))
        if bundle.get("vault") is not None:
            report.merge(self.analyze_vault(
                VaultState.from_dict(bundle["vault"])))
        if bundle.get("provstore") is not None:
            report.merge(self.analyze_store(
                StoreState.from_dict(bundle["provstore"])))
        return report
