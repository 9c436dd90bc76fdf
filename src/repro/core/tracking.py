"""Quality tracking over time.

"quality assessment must be a continuous task, as long as users deem
the data to be useful — i.e., this task is needed throughout the
preservation life cycle."

The :class:`QualityLedger` persists every assessment report (on the
storage engine) together with the *assessment year*, so curators can
ask how each dimension evolved across re-curations — the 2011 vs 2013
story of §IV-B, as data.  :meth:`QualityLedger.trend` classifies a
dimension's trajectory and :meth:`QualityLedger.degrading_dimensions`
lists what needs attention.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.assessment import AssessmentReport, QualityValue
from repro.errors import QualityError
from repro.storage import Column, Database, TableSchema, col
from repro.storage import column_types as ct

__all__ = ["QualityLedger", "TrendPoint"]

_TABLE = "quality_ledger"

#: a change in value at most this large reads as "stable"
TREND_TOLERANCE = 0.005


class TrendPoint:
    """One (year, value) observation of one dimension."""

    __slots__ = ("year", "value", "run_id")

    def __init__(self, year: int, value: float,
                 run_id: str | None = None) -> None:
        self.year = year
        self.value = value
        self.run_id = run_id

    def __repr__(self) -> str:
        return f"TrendPoint({self.year}: {self.value:.3f})"


class QualityLedger:
    """Persistent history of assessments for one subject."""

    def __init__(self, database: Database | None = None) -> None:
        self.database = database or Database("quality_ledger")
        if not self.database.has_table(_TABLE):
            self.database.create_table(TableSchema(_TABLE, [
                Column("entry_id", ct.INTEGER),
                Column("subject", ct.TEXT, nullable=False),
                Column("dimension", ct.TEXT, nullable=False),
                Column("value", ct.REAL, nullable=False,
                       check=lambda v: 0.0 <= v <= 1.0),
                Column("source", ct.TEXT, default=""),
                Column("assessed_year", ct.INTEGER, nullable=False),
                Column("run_id", ct.TEXT),
            ], primary_key="entry_id"))
            self.database.create_index(_TABLE, "subject", "hash")
            self.database.create_index(_TABLE, "dimension", "hash")
        self._next_id = self.database.count(_TABLE) + 1

    def __len__(self) -> int:
        return self.database.count(_TABLE)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def record(self, report: AssessmentReport, assessed_year: int) -> int:
        """Persist every value of ``report``; returns entries written."""
        written = 0
        for value in report:
            self.database.insert(_TABLE, {
                "entry_id": self._next_id,
                "subject": report.subject,
                "dimension": value.dimension,
                "value": value.value,
                "source": value.source,
                "assessed_year": assessed_year,
                "run_id": report.run_id,
            })
            self._next_id += 1
            written += 1
        return written

    def record_value(self, subject: str, value: QualityValue,
                     assessed_year: int, run_id: str | None = None) -> None:
        self.database.insert(_TABLE, {
            "entry_id": self._next_id,
            "subject": subject,
            "dimension": value.dimension,
            "value": value.value,
            "source": value.source,
            "assessed_year": assessed_year,
            "run_id": run_id,
        })
        self._next_id += 1

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def subjects(self) -> list[str]:
        return sorted({
            row["subject"]
            for row in self.database.query(_TABLE).select("subject").all()
        })

    def dimensions(self, subject: str) -> list[str]:
        rows = self.database.query(_TABLE).where(
            col("subject") == subject).select("dimension").distinct().all()
        return sorted(row["dimension"] for row in rows)

    def series(self, subject: str, dimension: str) -> list[TrendPoint]:
        """Chronological observations of one dimension."""
        rows = self.database.query(_TABLE).where(
            (col("subject") == subject) & (col("dimension") == dimension)
        ).order_by("assessed_year").order_by("entry_id").all()
        return [
            TrendPoint(row["assessed_year"], row["value"], row["run_id"])
            for row in rows
        ]

    def latest(self, subject: str, dimension: str) -> TrendPoint:
        points = self.series(subject, dimension)
        if not points:
            raise QualityError(
                f"no assessments of {dimension!r} for {subject!r}"
            )
        return points[-1]

    # ------------------------------------------------------------------
    # trends
    # ------------------------------------------------------------------

    def trend(self, subject: str, dimension: str) -> str:
        """``"improving"`` / ``"degrading"`` / ``"stable"`` /
        ``"insufficient_data"`` over the recorded window."""
        points = self.series(subject, dimension)
        if len(points) < 2:
            return "insufficient_data"
        delta = points[-1].value - points[0].value
        if delta > TREND_TOLERANCE:
            return "improving"
        if delta < -TREND_TOLERANCE:
            return "degrading"
        return "stable"

    def degrading_dimensions(self, subject: str) -> list[str]:
        """The continuous-assessment alarm list."""
        return [
            dimension for dimension in self.dimensions(subject)
            if self.trend(subject, dimension) == "degrading"
        ]

    def history(self, subject: str) -> Iterator[dict]:
        """All rows for one subject, chronological."""
        yield from self.database.query(_TABLE).where(
            col("subject") == subject
        ).order_by("assessed_year").order_by("entry_id").all()
