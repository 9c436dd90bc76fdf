"""The observation store — heterogeneous sources, one query surface.

Two tables on the storage engine: ``observations`` (entity, place,
time, source, context links as JSON) and ``measurements`` (one row per
characteristic value, FK to its observation).  Queries cut across
sources: "every numeric value of characteristic X", "all observations
of entity E", "observations within a bounding box", per-characteristic
statistics.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import ReproError
from repro.observations.model import Entity, Measurement, Observation
from repro.storage import Column, Database, ForeignKey, TableSchema, col
from repro.storage import column_types as ct
from repro.storage.query import Aggregate

__all__ = ["ObservationStore"]

_OBS = "observations"
_MEAS = "measurements"


class ObservationStore:
    """Uniform storage for observations of any kind."""

    def __init__(self, database: Database | None = None) -> None:
        self.database = database or Database("observations")
        if not self.database.has_table(_OBS):
            self.database.create_table(TableSchema(_OBS, [
                Column("obs_id", ct.TEXT),
                Column("entity_kind", ct.TEXT, nullable=False),
                Column("entity_name", ct.TEXT, nullable=False),
                Column("observed_at", ct.DATETIME),
                Column("latitude", ct.REAL),
                Column("longitude", ct.REAL),
                Column("observer", ct.TEXT, default=""),
                Column("source", ct.TEXT, default=""),
                Column("context", ct.JSON, default=list),
            ], primary_key="obs_id"))
            self.database.create_index(_OBS, "entity_name", "hash")
            self.database.create_index(_OBS, "source", "hash")
            self.database.create_table(TableSchema(_MEAS, [
                Column("measurement_id", ct.INTEGER),
                Column("obs_id", ct.TEXT, nullable=False),
                Column("characteristic", ct.TEXT, nullable=False),
                Column("value_num", ct.REAL),
                Column("value_text", ct.TEXT),
                Column("unit", ct.TEXT, default=""),
                Column("precision", ct.REAL),
            ], primary_key="measurement_id",
                foreign_keys=[ForeignKey("obs_id", _OBS, "obs_id")]))
            self.database.create_index(_MEAS, "characteristic", "hash")
            self.database.create_index(_MEAS, "obs_id", "hash")
            self.database.create_index(_MEAS, "value_num", "sorted")
        self._next_measurement_id = self.database.count(_MEAS) + 1

    def __len__(self) -> int:
        return self.database.count(_OBS)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def _observation_row(self, observation: Observation) -> dict[str, Any]:
        return {
            "obs_id": observation.obs_id,
            "entity_kind": observation.entity.kind,
            "entity_name": observation.entity.name,
            "observed_at": observation.observed_at,
            "latitude": observation.latitude,
            "longitude": observation.longitude,
            "observer": observation.observer,
            "source": observation.source,
            "context": list(observation.context),
        }

    def _measurement_row(self, observation: Observation,
                         measurement: Measurement,
                         measurement_id: int) -> dict[str, Any]:
        numeric = measurement.value if measurement.is_numeric else None
        text = None if measurement.is_numeric else (
            None if measurement.value is None
            else str(measurement.value))
        return {
            "measurement_id": measurement_id,
            "obs_id": observation.obs_id,
            "characteristic": measurement.characteristic,
            "value_num": numeric,
            "value_text": text,
            "unit": measurement.unit,
            "precision": measurement.precision,
        }

    def add(self, observation: Observation) -> str:
        """Store one observation with its measurements."""
        for context_id in observation.context:
            if self.database.find(_OBS, context_id) is None:
                raise ReproError(
                    f"context observation {context_id!r} is not stored"
                )
        self.database.insert(_OBS, self._observation_row(observation))
        for measurement in observation.measurements:
            self.database.insert(_MEAS, self._measurement_row(
                observation, measurement, self._next_measurement_id))
            self._next_measurement_id += 1
        return observation.obs_id

    def add_all(self, observations: Iterator[Observation]) -> int:
        """Bulk-store a batch through :meth:`Database.bulk_load`.

        One context-validation pre-pass replaces the per-row point
        queries of repeated :meth:`add` calls: a reference is satisfied
        by an *earlier observation in the same batch* or by the store,
        and each distinct stored id is probed at most once.  Unlike the
        old loop, a failing reference leaves the store untouched (the
        batch validates before anything lands), and both tables get one
        journal entry / deferred index rebuild instead of one per row.
        """
        batch = list(observations)
        if not batch:
            return 0
        satisfied: set[str] = set()
        obs_rows: list[dict[str, Any]] = []
        meas_rows: list[dict[str, Any]] = []
        next_id = self._next_measurement_id
        for observation in batch:
            for context_id in observation.context:
                if context_id in satisfied:
                    continue
                if self.database.find(_OBS, context_id) is not None:
                    satisfied.add(context_id)
                    continue
                raise ReproError(
                    f"context observation {context_id!r} is not stored"
                )
            satisfied.add(observation.obs_id)
            obs_rows.append(self._observation_row(observation))
            for measurement in observation.measurements:
                meas_rows.append(self._measurement_row(
                    observation, measurement, next_id))
                next_id += 1
        self.database.bulk_load(_OBS, obs_rows)
        if meas_rows:
            self.database.bulk_load(_MEAS, meas_rows)
        self._next_measurement_id = next_id
        return len(batch)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def get(self, obs_id: str) -> Observation:
        row = self.database.find(_OBS, obs_id)
        if row is None:
            raise ReproError(f"no observation {obs_id!r}")
        measurements = []
        for m in self.database.query(_MEAS).where(
                col("obs_id") == obs_id).order_by("measurement_id").all():
            value = m["value_num"] if m["value_num"] is not None else (
                m["value_text"])
            measurements.append(Measurement(
                m["characteristic"], value, unit=m["unit"] or "",
                precision=m["precision"]))
        return Observation(
            row["obs_id"],
            Entity(row["entity_kind"], row["entity_name"]),
            measurements=measurements,
            observed_at=row["observed_at"],
            latitude=row["latitude"], longitude=row["longitude"],
            observer=row["observer"] or "", source=row["source"] or "",
            context=row["context"] or [],
        )

    def observations_of(self, entity: Entity) -> list[Observation]:
        rows = self.database.query(_OBS).where(
            (col("entity_kind") == entity.kind)
            & (col("entity_name") == entity.name)
        ).order_by("obs_id").all()
        return [self.get(row["obs_id"]) for row in rows]

    def sources(self) -> list[str]:
        return sorted({
            row["source"]
            for row in self.database.query(_OBS).select("source").all()
            if row["source"]
        })

    def entity_names(self, kind: str | None = None) -> list[str]:
        query = self.database.query(_OBS)
        if kind is not None:
            query = query.where(col("entity_kind") == kind)
        return sorted({
            row["entity_name"]
            for row in query.select("entity_name").all()
        })

    # ------------------------------------------------------------------
    # cross-source queries
    # ------------------------------------------------------------------

    def values_of(self, characteristic: str) -> list[Any]:
        """Every stored numeric value of one characteristic, across
        sources."""
        rows = self.database.query(_MEAS).where(
            col("characteristic") == characteristic).all()
        return [row["value_num"] for row in rows
                if row["value_num"] is not None]

    def observations_where(self, characteristic: str, low: float,
                           high: float) -> list[str]:
        """Observation ids whose numeric measurement lies in
        [low, high]."""
        rows = self.database.query(_MEAS).where(
            (col("characteristic") == characteristic)
            & col("value_num").between(low, high)
        ).select("obs_id").all()
        return sorted({row["obs_id"] for row in rows})

    def within_box(self, lat_min: float, lat_max: float,
                   lon_min: float, lon_max: float) -> list[str]:
        rows = self.database.query(_OBS).where(
            col("latitude").between(lat_min, lat_max)
            & col("longitude").between(lon_min, lon_max)
        ).select("obs_id").all()
        return sorted(row["obs_id"] for row in rows)

    def statistics(self, characteristic: str) -> dict[str, Any]:
        """count / min / max / mean of one characteristic."""
        result = self.database.query(_MEAS).where(
            col("characteristic") == characteristic
        ).aggregate(
            Aggregate("count", "value_num", alias="count"),
            Aggregate("min", "value_num", alias="min"),
            Aggregate("max", "value_num", alias="max"),
            Aggregate("avg", "value_num", alias="mean"),
        )
        return result

    def context_chain(self, obs_id: str) -> list[str]:
        """Transitive context closure of one observation."""
        seen: list[str] = []
        frontier = [obs_id]
        while frontier:
            current = self.get(frontier.pop(0))
            for context_id in current.context:
                if context_id not in seen:
                    seen.append(context_id)
                    frontier.append(context_id)
        return seen
