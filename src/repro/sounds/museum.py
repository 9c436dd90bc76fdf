"""Museum specimen metadata — the paper's *other* observation kind.

"We point out that we have worked with other kinds of biodiversity
observations, e.g., animals in museum collections."

A museum specimen is a different artifact from a sound recording —
there is a preserved object, a collector, a catalog number, a
preparation type — yet it asserts the same core observation (a taxon,
a place, a date).  :func:`generate_museum_collection` builds a seeded
specimen table drawing names from the same catalogue (so the same
outdated-name curation applies), and
:func:`museum_observation` maps specimens into the uniform observation
model, where they become cross-queryable with the sound archive.
"""

from __future__ import annotations

import datetime as _dt
import random
from typing import Any

from repro.geo.gazetteer import Gazetteer
from repro.observations.model import Entity, Measurement, Observation
from repro.storage import Column, Database, TableSchema
from repro.storage import column_types as ct
from repro.taxonomy.catalogue import CatalogueOfLife

__all__ = ["MUSEUM_TABLE", "museum_schema", "generate_museum_collection",
           "museum_observation"]

MUSEUM_TABLE = "specimens"

_PREPARATIONS = ("alcohol", "skin", "skeleton", "pinned", "tissue")
_COLLECTORS = ("E. Kraus", "M. Prado", "H. Siqueira", "T. Ueda",
               "V. Braga", "A. Cunha")


def museum_schema() -> TableSchema:
    return TableSchema(MUSEUM_TABLE, [
        Column("catalog_number", ct.TEXT),
        Column("species", ct.TEXT),
        Column("collect_date", ct.DATE),
        Column("country", ct.TEXT),
        Column("state", ct.TEXT),
        Column("city", ct.TEXT),
        Column("latitude", ct.REAL),
        Column("longitude", ct.REAL),
        Column("collector", ct.TEXT),
        Column("preparation", ct.TEXT,
               check=lambda v: v in _PREPARATIONS),
        Column("body_length_mm", ct.REAL,
               check=lambda v: 0 < v < 5000),
        Column("mass_g", ct.REAL, check=lambda v: 0 < v < 500000),
        Column("sex", ct.TEXT,
               check=lambda v: v in ("male", "female", "undetermined")),
    ], primary_key="catalog_number")


def generate_museum_collection(catalogue: CatalogueOfLife,
                               n_specimens: int = 400,
                               seed: int = 2013,
                               database: Database | None = None) -> Database:
    """A seeded specimen table over the catalogue's names (outdated ones
    included) and the seed's gazetteer; returns its database."""
    rng = random.Random(seed)
    gazetteer = Gazetteer(seed=seed)
    database = database or Database("museum")
    if not database.has_table(MUSEUM_TABLE):
        database.create_table(museum_schema())
        database.create_index(MUSEUM_TABLE, "species", "hash")
    species_pool = catalogue.species_names(include_outdated=True)
    states = gazetteer.states("Brasil")
    for index in range(1, n_specimens + 1):
        species = rng.choice(species_pool)
        state = rng.choice(states)
        cities = gazetteer.city_names(country="Brasil", state=state)
        city = rng.choice(cities)
        place = gazetteer.try_resolve(country="Brasil", state=state,
                                      city=city)
        year = rng.randint(1950, 2013)
        database.insert(MUSEUM_TABLE, {
            "catalog_number": f"ZUEC-{index:05d}",
            "species": species,
            "collect_date": _dt.date(year, rng.randint(1, 12),
                                     rng.randint(1, 28)),
            "country": "Brasil",
            "state": state,
            "city": city,
            "latitude": None if place is None
            else round(place.latitude + rng.gauss(0, 0.05), 5),
            "longitude": None if place is None
            else round(place.longitude + rng.gauss(0, 0.05), 5),
            "collector": rng.choice(_COLLECTORS),
            "preparation": rng.choice(_PREPARATIONS),
            "body_length_mm": round(rng.uniform(8, 400), 1),
            "mass_g": round(rng.uniform(0.5, 2000), 1),
            "sex": rng.choice(["male", "female", "undetermined"]),
        })
    return database


def museum_observation(row: dict[str, Any]) -> Observation:
    """One specimen row as a taxon observation (source ``museum``)."""
    measurements = [
        Measurement("specimen_collected", True),
        Measurement("preparation", row["preparation"]),
    ]
    if row.get("body_length_mm") is not None:
        measurements.append(Measurement("body_length",
                                        row["body_length_mm"], unit="mm"))
    if row.get("mass_g") is not None:
        measurements.append(Measurement("mass", row["mass_g"], unit="g"))
    if row.get("sex"):
        measurements.append(Measurement("sex", row["sex"]))
    date = row.get("collect_date")
    observed_at = None
    if date is not None:
        observed_at = _dt.datetime(date.year, date.month, date.day)
    return Observation(
        f"museum/{row['catalog_number']}",
        Entity("taxon", row["species"]),
        measurements=measurements,
        observed_at=observed_at,
        latitude=row.get("latitude"),
        longitude=row.get("longitude"),
        observer=row.get("collector") or "",
        source="museum",
    )
