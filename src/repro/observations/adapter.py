"""Adapters: heterogeneous records -> uniform observations.

``observation_from_sound_record`` turns one FNJV-style recording into a
taxon observation whose measurements carry the environmental and
recording characteristics; ``observation_from_row`` maps any tabular
row given a small column specification — the ObsDB promise that a sound
archive and a weather logger can share one store.
"""

from __future__ import annotations

import datetime as _dt
from typing import Any, Mapping

from repro.errors import ReproError
from repro.observations.model import Entity, Measurement, Observation
from repro.sounds.record import SoundRecord

__all__ = ["observation_from_sound_record", "observation_from_row"]


def _observed_at(record: SoundRecord) -> _dt.datetime | None:
    date = record.collect_date
    if date is None:
        return None
    hour, minute = 12, 0
    time_text = record.collect_time
    if time_text and len(time_text) == 5 and time_text[2] == ":":
        try:
            hour, minute = int(time_text[:2]), int(time_text[3:])
        except ValueError:
            pass
    if not (0 <= hour <= 23 and 0 <= minute <= 59):
        hour, minute = 12, 0
    return _dt.datetime(date.year, date.month, date.day, hour, minute)


def observation_from_sound_record(record: SoundRecord) -> Observation:
    """One recording as a taxon observation (source ``fnjv``)."""
    if record.species is None:
        raise ReproError(
            f"record {record.record_id} has no species; cannot form a "
            "taxon observation"
        )
    measurements = [Measurement("vocalization_recorded", True)]
    if record.number_of_individuals is not None:
        measurements.append(Measurement(
            "individuals", record.number_of_individuals, unit="count"))
    if record.air_temperature_c is not None:
        measurements.append(Measurement(
            "air_temperature", record.air_temperature_c, unit="degC"))
    if record.frequency_khz is not None:
        measurements.append(Measurement(
            "sampling_rate", record.frequency_khz, unit="kHz"))
    if record.duration_s is not None:
        measurements.append(Measurement(
            "recording_duration", record.duration_s, unit="s"))
    if record.habitat is not None:
        measurements.append(Measurement("habitat", record.habitat))
    if record.atmospheric_conditions is not None:
        measurements.append(Measurement(
            "atmospheric_conditions", record.atmospheric_conditions))
    return Observation(
        f"fnjv/rec/{record.record_id}",
        Entity("taxon", record.species),
        measurements=measurements,
        observed_at=_observed_at(record),
        latitude=record.latitude,
        longitude=record.longitude,
        observer=record.recordist or "",
        source="fnjv",
    )


def observation_from_row(row: Mapping[str, Any], obs_id: str,
                         entity_kind: str, entity_column: str,
                         measurement_columns: Mapping[str, str],
                         source: str,
                         observed_at_column: str | None = None
                         ) -> Observation:
    """A generic tabular row as an observation.

    ``measurement_columns`` maps ``column name -> unit`` (empty unit for
    categorical values).
    """
    entity_name = row.get(entity_column)
    if not entity_name:
        raise ReproError(f"row lacks entity column {entity_column!r}")
    measurements = []
    for column, unit in measurement_columns.items():
        value = row.get(column)
        if value is not None:
            measurements.append(Measurement(column, value, unit=unit))
    observed_at = row.get(observed_at_column) if observed_at_column else None
    if isinstance(observed_at, _dt.date) and not isinstance(
            observed_at, _dt.datetime):
        observed_at = _dt.datetime(observed_at.year, observed_at.month,
                                   observed_at.day)
    return Observation(
        obs_id,
        Entity(entity_kind, str(entity_name)),
        measurements=measurements,
        observed_at=observed_at,
        source=source,
    )
