"""Typo repair through fuzzy catalogue resolution.

Part of the stage-1 "syntactic corrections": species names that are
well-formed binomials but unknown to the Catalogue of Life are probably
misspelled.  The catalogue's fuzzy resolver (bounded edit distance)
proposes the intended name; the proposal is *flagged* — unlike pure
case normalization, a spelling repair changes meaning and needs a
biologist's eye.
"""

from __future__ import annotations

from repro.curation.history import CurationHistory
from repro.taxonomy.catalogue import CatalogueOfLife
from repro.errors import InvalidNameError
from repro.taxonomy.nomenclature import normalize_name
from repro.telemetry import get_telemetry

__all__ = ["NameRepairReport", "NameRepairer"]


class NameRepairReport:
    """Outcome of one repair pass."""

    def __init__(self) -> None:
        self.records_scanned = 0
        self.known_names = 0
        #: record_id -> (misspelled, suggested)
        self.repairs: dict[int, tuple[str, str]] = {}
        #: record_id -> unknown name with no suggestion
        self.unrepairable: dict[int, str] = {}

    def summary(self) -> dict[str, int]:
        return {
            "records_scanned": self.records_scanned,
            "known_names": self.known_names,
            "repairs_proposed": len(self.repairs),
            "unrepairable": len(self.unrepairable),
        }

    def __repr__(self) -> str:
        return f"NameRepairReport({self.summary()})"


class NameRepairer:
    """Runs the fuzzy-repair pass against a collection + history log."""

    STEP = "stage1.1-name-repair"

    def __init__(self, history: CurationHistory,
                 catalogue: CatalogueOfLife) -> None:
        self.history = history
        self.collection = history.collection
        self.catalogue = catalogue

    def run(self) -> NameRepairReport:
        report = NameRepairReport()
        # resolve each distinct name once; collections repeat names a lot
        verdicts: dict[str, str | None] = {}
        for record in self.collection.records():
            report.records_scanned += 1
            raw = record.species
            if raw is None:
                continue
            try:
                name = normalize_name(raw)
            except InvalidNameError as error:
                get_telemetry().events.record("invalid_name_skipped", {
                    "step": self.STEP,
                    "record_id": record.record_id,
                    "raw": raw,
                    "reason": str(error),
                })
                continue
            if name not in verdicts:
                verdicts[name] = self._suggestion_for(name)
            suggestion = verdicts[name]
            if suggestion == name:
                report.known_names += 1
            elif suggestion is None:
                report.unrepairable[record.record_id] = name
            else:
                report.repairs[record.record_id] = (name, suggestion)
                self.history.propose(
                    record.record_id, "species", raw, suggestion,
                    self.STEP,
                    note=(
                        f"{name!r} is unknown to the catalogue; "
                        f"probable misspelling of {suggestion!r}"
                    ),
                )
        return report

    def _suggestion_for(self, name: str) -> str | None:
        """``name`` itself when known; a fuzzy suggestion; or ``None``."""
        resolution = self.catalogue.resolve(name, fuzzy=True)
        if resolution.is_known:
            return name
        if resolution.status == "fuzzy":
            return resolution.suggestion
        return None
