"""Entities, measurements, observations.

The ObsDB model in miniature: an :class:`Observation` asserts that an
:class:`Entity` was observed at some place and time, with a set of
:class:`Measurement` values; observations can reference *context*
observations (e.g. a vocalization observed within a weather
observation's conditions).
"""

from __future__ import annotations

import datetime as _dt
from typing import Any, Iterable

from repro.errors import ReproError

__all__ = ["Entity", "Measurement", "Observation"]

_ENTITY_KINDS = ("taxon", "location", "sample", "device", "event")


class Entity:
    """The thing observed."""

    __slots__ = ("kind", "name")

    def __init__(self, kind: str, name: str) -> None:
        if kind not in _ENTITY_KINDS:
            raise ReproError(f"unknown entity kind {kind!r}")
        if not name:
            raise ReproError("entity needs a name")
        self.kind = kind
        self.name = name

    def __repr__(self) -> str:
        return f"Entity({self.kind}: {self.name})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Entity):
            return NotImplemented
        return (self.kind, self.name) == (other.kind, other.name)

    def __hash__(self) -> int:
        return hash((self.kind, self.name))

    @property
    def key(self) -> str:
        return f"{self.kind}:{self.name}"


class Measurement:
    """One recorded value of one characteristic."""

    __slots__ = ("characteristic", "value", "unit", "precision")

    def __init__(self, characteristic: str, value: Any,
                 unit: str = "", precision: float | None = None) -> None:
        if not characteristic:
            raise ReproError("measurement needs a characteristic")
        self.characteristic = characteristic
        self.value = value
        self.unit = unit
        self.precision = precision

    def __repr__(self) -> str:
        unit = f" {self.unit}" if self.unit else ""
        return f"Measurement({self.characteristic}={self.value!r}{unit})"

    @property
    def is_numeric(self) -> bool:
        return isinstance(self.value, (int, float)) and not isinstance(
            self.value, bool)


class Observation:
    """One assertion: entity + measurements + place/time + context."""

    def __init__(self, obs_id: str, entity: Entity,
                 measurements: Iterable[Measurement] = (),
                 observed_at: _dt.datetime | None = None,
                 latitude: float | None = None,
                 longitude: float | None = None,
                 observer: str = "",
                 source: str = "",
                 context: Iterable[str] = ()) -> None:
        if not obs_id:
            raise ReproError("observation needs an id")
        self.obs_id = obs_id
        self.entity = entity
        self.measurements = list(measurements)
        self.observed_at = observed_at
        self.latitude = latitude
        self.longitude = longitude
        self.observer = observer
        self.source = source
        #: ids of context observations (conditions this one sits within)
        self.context = list(context)

    def __repr__(self) -> str:
        return (
            f"Observation({self.obs_id}, {self.entity.key}, "
            f"{len(self.measurements)} measurements)"
        )

    def measurement(self, characteristic: str) -> Measurement | None:
        for measurement in self.measurements:
            if measurement.characteristic == characteristic:
                return measurement
        return None

    def value_of(self, characteristic: str, default: Any = None) -> Any:
        measurement = self.measurement(characteristic)
        return default if measurement is None else measurement.value

    def characteristics(self) -> list[str]:
        return [m.characteristic for m in self.measurements]

    def add_context(self, obs_id: str) -> None:
        if obs_id == self.obs_id:
            raise ReproError("an observation cannot be its own context")
        if obs_id not in self.context:
            self.context.append(obs_id)
