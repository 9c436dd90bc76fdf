"""The Data Quality Manager (box C of Fig. 1).

Generates quality information from the three sources the paper names:

(a) the provenance stored by the Provenance Manager (process
    annotations, run traces, observed service behaviour),
(b) the quality attributes added to workflows by the Workflow Adapter
    (``Q(reputation)``, ``Q(availability)``),
(c) external data sources (the Catalogue of Life, for accuracy).

End users interact with it in two ways: ask for the case study's
standard report (:meth:`DataQualityManager.assess_species_check_run` —
the §IV-C numbers), or register their own profiles/metrics and evaluate
them (:meth:`DataQualityManager.evaluate_profile`).
"""

from __future__ import annotations

from typing import Mapping

from repro.core.assessment import (
    AssessmentContext,
    AssessmentReport,
    QualityValue,
)
from repro.core.dimensions import standard_registry
from repro.core.metrics import (
    QualityMetric,
    annotated_metric,
    completeness_metric,
    consistency_metric,
    measured_availability_metric,
    name_accuracy_metric,
)
from repro.core.profile import ProfileEvaluation, QualityProfile
from repro.errors import MetricError, QualityError, UnknownDimensionError
from repro.provenance.repository import ProvenanceRepository

__all__ = ["DataQualityManager"]


class DataQualityManager:
    """The end user's entry point for quality assessment."""

    def __init__(self,
                 provenance: ProvenanceRepository | None = None) -> None:
        self.provenance = provenance
        self.dimensions = standard_registry()
        self._profiles: dict[str, QualityProfile] = {}
        self._metrics: dict[str, QualityMetric] = {}
        for metric in (
            name_accuracy_metric(),
            completeness_metric(),
            consistency_metric(),
            measured_availability_metric(),
        ):
            self.register_metric(metric)

    # ------------------------------------------------------------------
    # registration (End User role)
    # ------------------------------------------------------------------

    def register_metric(self, metric: QualityMetric) -> QualityMetric:
        """Register a measurement method; its dimension must exist."""
        if metric.dimension not in self.dimensions:
            raise UnknownDimensionError(
                f"metric {metric.name!r} targets unregistered dimension "
                f"{metric.dimension!r}"
            )
        self._metrics[metric.name] = metric
        return metric

    def metric(self, name: str) -> QualityMetric:
        try:
            return self._metrics[name]
        except KeyError:
            raise QualityError(f"no metric {name!r} registered") from None

    def metric_names(self) -> list[str]:
        return sorted(self._metrics)

    def register_profile(self, profile: QualityProfile) -> QualityProfile:
        for goal in profile.goals:
            if goal.metric.dimension not in self.dimensions:
                raise UnknownDimensionError(
                    f"profile {profile.name!r} uses unregistered dimension "
                    f"{goal.metric.dimension!r}"
                )
        self._profiles[profile.name] = profile
        return profile

    def profile(self, name: str) -> QualityProfile:
        try:
            return self._profiles[name]
        except KeyError:
            raise QualityError(f"no profile {name!r} registered") from None

    def profile_names(self) -> list[str]:
        return sorted(self._profiles)

    # ------------------------------------------------------------------
    # contexts
    # ------------------------------------------------------------------

    def context_for_run(self, run_id: str,
                        collection=None) -> AssessmentContext:
        """Build a context around one captured run."""
        if self.provenance is None:
            raise QualityError(
                "manager has no provenance repository attached"
            )
        trace = self.provenance.trace_for(run_id)
        return AssessmentContext(
            collection=collection,
            provenance=self.provenance,
            run_id=run_id,
            workflow_output=trace.outputs,
        )

    # ------------------------------------------------------------------
    # assessment
    # ------------------------------------------------------------------

    def assess_species_check_run(self, run_id: str,
                                 collection=None) -> AssessmentReport:
        """The case study's standard report (§IV-C).

        Combines (a) provenance, (b) workflow annotations and (c) the
        workflow's own output into accuracy + reputation + availability.
        """
        context = self.context_for_run(run_id, collection=collection)
        report = AssessmentReport(
            subject=context.trace().workflow_name, run_id=run_id
        )
        # (c) accuracy from the workflow output
        report.add(self.metric("species_name_accuracy").measure(context))
        # (b) reputation/availability as annotated via the adapter,
        # carried by (a) the provenance graph
        for dimension in ("reputation", "availability"):
            try:
                report.add(annotated_metric(dimension).measure(context))
            except MetricError as exc:
                report.note(f"{dimension}: {exc}")
        # (a) observed availability, when the run recorded service stats
        try:
            measured = self.metric("measured_availability").measure(context)
        except MetricError:
            pass
        else:
            measured = QualityValue(
                "observed_availability", measured.value, measured.source,
                method=measured.method, details=measured.details,
            )
            report.add(measured)
        details = report.quality_value("accuracy").details
        if {"distinct_names", "outdated_names"} <= set(details):
            report.note(
                f"{details['distinct_names']} distinct species names "
                f"analyzed; {details['outdated_names']} outdated"
            )
        return report

    def assess_operations(self, snapshot: Mapping) -> AssessmentReport:
        """Quality information from the telemetry layer (an *external
        source* in the paper's taxonomy).

        ``snapshot`` is a :meth:`repro.telemetry.Telemetry.snapshot`
        dict.  The report carries the availability each service
        *measured* at runtime (vs. the annotated ``Q(availability)``)
        and run reliability (fraction of runs that finished clean — a
        ``degraded`` run is not clean).
        """
        from repro.telemetry import quality_signals

        signals = quality_signals(snapshot)
        report = AssessmentReport(subject="operations (telemetry)")
        availability = signals.get("measured_availability", {})
        for service, value in sorted(availability.items()):
            dimension = ("observed_availability" if len(availability) == 1
                         else f"observed_availability ({service})")
            report.add(QualityValue(
                dimension, value, "external",
                method="telemetry: successes / calls",
                details={"service": service},
            ))
        run_counts = signals.get("run_counts")
        if run_counts:
            total = sum(run_counts.values())
            clean = run_counts.get("completed", 0)
            report.add(QualityValue(
                "reliability", clean / total if total else 1.0, "external",
                method="telemetry: completed runs / all runs "
                       "(degraded runs are not clean)",
                details={"run_counts": dict(run_counts)},
            ))
        if "processor_seconds" in signals:
            slowest = max(signals["processor_seconds"].items(),
                          key=lambda item: item[1]["sum"])
            report.note(
                f"slowest processor: {slowest[0]} "
                f"({slowest[1]['sum']:.2f}s simulated over "
                f"{slowest[1]['count']} run(s))"
            )
        if not len(report):
            report.note("telemetry snapshot carried no quality signals")
        return report

    def assess_preservation(self, federation) -> AssessmentReport:
        """Quality information from the federated vault (a *computed*
        source): the cost/durability trade each preservation level
        bought.

        ``federation`` is a
        :class:`~repro.archive.federation.FederatedVault` (anything
        with its ``durability_report``).  Per configured level the
        report carries the modeled **durability** (P(object survives)
        under independent site loss) and a **storage efficiency** score
        — the replica overhead that would buy the same durability,
        relative to what the level's scheme actually spends (1.0 means
        the scheme is at least as cheap as plain replication; the
        erasure levels typically clamp there, which is the point).
        Site loss is modeled at the federation's default probability.
        """
        document = federation.durability_report()
        report = AssessmentReport(subject="preservation (federation)")
        for level, entry in sorted(document["levels"].items()):
            scheme = entry["scheme"]
            kind = scheme["kind"]
            label = (f"{scheme.get('copies')} replicas"
                     if kind == "full_replica"
                     else f"erasure {scheme.get('k')}-of-{scheme.get('n')}")
            report.add(QualityValue(
                f"durability (level {level})", entry["durability"],
                "computed",
                method=f"{label} under independent site loss "
                       f"p={document['site_loss_probability']}",
                details={"scheme": dict(scheme),
                         "overhead_factor": entry["overhead_factor"]},
            ))
            overhead = entry["overhead_factor"]
            efficiency = (min(1.0, entry["equivalent_replica_overhead"]
                              / overhead) if overhead else 0.0)
            report.add(QualityValue(
                f"storage_efficiency (level {level})", efficiency,
                "computed",
                method="equivalent replica overhead / actual overhead "
                       "(clamped to 1)",
                details={
                    "overhead_factor": overhead,
                    "equivalent_replica_copies":
                        entry["equivalent_replica_copies"],
                },
            ))
        for kind, bucket in sorted(document["storage_cost"].items()):
            report.note(
                f"{kind}: {bucket['objects']} object(s), "
                f"{bucket['logical_bytes']} logical bytes stored as "
                f"{bucket['stored_bytes']} fragment bytes "
                f"(x{bucket['overhead_factor']})"
            )
        if not document["storage_cost"]:
            report.note("the federation holds no objects yet")
        return report

    def assess_collection(self, collection,
                          catalogue=None) -> AssessmentReport:
        """Direct (no-run) assessment of a collection: accuracy against
        the catalogue plus completeness and consistency."""
        context = AssessmentContext(collection=collection,
                                    catalogue=catalogue)
        report = AssessmentReport(subject=collection.name)
        for name in ("field_completeness", "domain_consistency"):
            report.add(self.metric(name).measure(context))
        if catalogue is not None:
            report.add(self.metric("species_name_accuracy").measure(context))
        return report

    def evaluate_profile(self, profile_name: str,
                         context: AssessmentContext) -> ProfileEvaluation:
        """Evaluate a registered profile against ``context``."""
        return self.profile(profile_name).evaluate(context)

    # ------------------------------------------------------------------
    # dimension registration passthrough
    # ------------------------------------------------------------------

    def define_dimension(self, name: str, category: str = "intrinsic"):
        """End users may add dimensions before registering metrics on
        them."""
        return self.dimensions.define(name, category)
