"""Stage 2 — spatial error detection.

"The second stage ... was geared towards using spatial analysis to check
errors.  Examples of errors found included misidentified species and
discovery of possible new species' behavior."

For every species with enough located records, the auditor runs the
robust spatial-outlier detector: a record far outside the species'
occurrence core is flagged as either a probable *misidentification* or a
possible *range extension* (new behaviour) — telling them apart is the
biologist's call, so flags carry both hypotheses and go to review.
"""

from __future__ import annotations

from typing import Any

from repro.curation.history import CurationHistory
from repro.geo.spatial import spatial_outliers
from repro.sounds.collection import SoundCollection

__all__ = ["SpatialFlag", "SpatialAuditReport", "SpatialAuditor"]


class SpatialFlag:
    """One flagged record."""

    __slots__ = ("record_id", "species", "distance_km", "threshold_km",
                 "latitude", "longitude")

    def __init__(self, record_id: int, species: str, distance_km: float,
                 threshold_km: float, latitude: float,
                 longitude: float) -> None:
        self.record_id = record_id
        self.species = species
        self.distance_km = distance_km
        self.threshold_km = threshold_km
        self.latitude = latitude
        self.longitude = longitude

    def __repr__(self) -> str:
        return (
            f"SpatialFlag(rec{self.record_id} {self.species!r} "
            f"{self.distance_km:.0f}km out)"
        )


class SpatialAuditReport:
    """Outcome of one stage-2 audit."""

    def __init__(self) -> None:
        self.species_audited = 0
        self.species_skipped = 0
        self.flags: list[SpatialFlag] = []

    def flagged_record_ids(self) -> set[int]:
        return {flag.record_id for flag in self.flags}

    def summary(self) -> dict[str, Any]:
        return {
            "species_audited": self.species_audited,
            "species_skipped_too_few_points": self.species_skipped,
            "records_flagged": len(self.flags),
        }

    def __repr__(self) -> str:
        return f"SpatialAuditReport({self.summary()})"


class SpatialAuditor:
    """Runs stage 2 against a collection (curated view when available)."""

    STEP = "stage2-spatial-audit"

    def __init__(self, collection: SoundCollection,
                 history: CurationHistory | None = None,
                 min_distance_km: float = 400.0,
                 min_points: int = 5) -> None:
        self.collection = collection
        self.history = history
        self.min_distance_km = min_distance_km
        self.min_points = min_points

    def _located_records(self) -> dict[str, list[tuple[int, float, float]]]:
        """species -> [(record_id, lat, lon)] using the curated view."""
        by_species: dict[str, list[tuple[int, float, float]]] = {}
        source = (
            self.history.curated_records() if self.history is not None
            else self.collection.records()
        )
        for record in source:
            coordinates = record.coordinates
            if coordinates is None or record.species is None:
                continue
            by_species.setdefault(record.species, []).append(
                (record.record_id, coordinates[0], coordinates[1])
            )
        return by_species

    def run(self) -> SpatialAuditReport:
        report = SpatialAuditReport()
        for species, entries in sorted(self._located_records().items()):
            if len(entries) < self.min_points:
                report.species_skipped += 1
                continue
            report.species_audited += 1
            points = [(lat, lon) for __, lat, lon in entries]
            for outlier in spatial_outliers(
                points,
                min_distance_km=self.min_distance_km,
                min_points=self.min_points,
            ):
                record_id = entries[outlier.index][0]
                flag = SpatialFlag(
                    record_id, species, outlier.distance_km,
                    outlier.threshold_km, outlier.latitude,
                    outlier.longitude,
                )
                report.flags.append(flag)
                if self.history is not None:
                    self.history.propose(
                        record_id, "species", species, None, self.STEP,
                        note=(
                            f"occurrence {outlier.distance_km:.0f} km from "
                            f"the species core (threshold "
                            f"{outlier.threshold_km:.0f} km): probable "
                            "misidentification or new behaviour"
                        ),
                    )
        return report
