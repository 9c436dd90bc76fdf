"""The seeded FNJV-like collection generator.

Calibrated to the paper's published figures:

* 11 898 records,
* 1 929 distinct species names (after syntactic normalization),
* exactly 134 of those names outdated with respect to the Catalogue of
  Life as of 2013 (7 % of the names analyzed),
* *Elachistocleis ovalis* among the outdated names (the paper's
  example).

Besides the species names, the generator plants every defect class the
curation pipeline must find, and returns a :class:`GroundTruth`
describing each plant — tests and accuracy metrics are computed against
it, never against the pipeline's own output.

Dirtiness model (rates configurable via :class:`CollectionConfig`):

* **pre-GPS records** — recordings made before ``gps_year`` mostly lack
  coordinates (stage 1.2 geocodes them from the place fields);
* **missing environment** — temperature / conditions / time are often
  blank (stage 1.3 fills them from the climate archive);
* **syntactic slips** — a fraction of species strings carry case errors
  ("SCINAX fuscomarginatus"); normalization recovers the canonical name;
* **misidentifications** — a few records carry a species label whose
  coordinates lie in another species' range (stage 2 flags them);
* **anachronisms** — a few records claim a format/device that did not
  exist at the recording date (domain cleaning flags them).
"""

from __future__ import annotations

import datetime as _dt
import random
from typing import Any

from repro.geo.climate import ClimateArchive
from repro.geo.gazetteer import Gazetteer
from repro.sounds.collection import SoundCollection
from repro.sounds.fields import (
    ATMOSPHERIC_CONDITIONS,
    HABITATS,
    MICRO_HABITATS,
)
from repro.sounds.formats import (
    FREQUENCIES_KHZ,
    devices_available,
    formats_available,
    microphones_available,
)
from repro.sounds.record import SoundRecord
from repro.taxonomy.catalogue import CatalogueOfLife

__all__ = ["CollectionConfig", "GroundTruth", "generate_collection"]

_RECORDISTS = (
    "J. Vielliard", "W. Silva", "M. Andrade", "L. Toledo", "R. Bastos",
    "C. Guerra", "A. Ferreira", "P. Nunes", "D. Lima", "S. Rocha",
)


class CollectionConfig:
    """Generation parameters, defaulting to the paper's scale."""

    def __init__(self, seed: int = 2013,
                 n_records: int = 11_898,
                 n_distinct_species: int = 1_929,
                 n_outdated_species: int = 134,
                 as_of_year: int = 2013,
                 first_year: int = 1961,
                 last_year: int = 2013,
                 gps_year: int = 1995,
                 pre_gps_missing_coords: float = 0.92,
                 post_gps_missing_coords: float = 0.10,
                 case_error_rate: float = 0.012,
                 typo_rate: float = 0.0,
                 n_misidentified: int = 15,
                 # upper bound: anachronisms only arise on records old
                 # enough that some modern format did not exist yet
                 n_anachronisms: int = 40,
                 missing_rates: dict[str, float] | None = None,
                 zipf_exponent: float = 0.85) -> None:
        if n_outdated_species > n_distinct_species:
            raise ValueError("more outdated names than distinct names")
        if n_records < n_distinct_species:
            raise ValueError("fewer records than distinct species")
        self.seed = seed
        self.n_records = n_records
        self.n_distinct_species = n_distinct_species
        self.n_outdated_species = n_outdated_species
        self.as_of_year = as_of_year
        self.first_year = first_year
        self.last_year = last_year
        self.gps_year = gps_year
        self.pre_gps_missing_coords = pre_gps_missing_coords
        self.post_gps_missing_coords = post_gps_missing_coords
        self.case_error_rate = case_error_rate
        # genuine misspellings (one-character edits) that normalization
        # cannot undo; 0.0 by default because the paper's 1 929 distinct
        # names are counted after syntactic cleaning only
        self.typo_rate = typo_rate
        self.n_misidentified = n_misidentified
        self.n_anachronisms = n_anachronisms
        self.zipf_exponent = zipf_exponent
        self.missing_rates = missing_rates or {
            "collect_time": 0.35,
            "gender": 0.40,
            "number_of_individuals": 0.22,
            "habitat": 0.28,
            "micro_habitat": 0.55,
            "air_temperature_c": 0.60,
            "atmospheric_conditions": 0.50,
            "city": 0.08,
            "location": 0.30,
            "phylum": 0.05,
            "order_": 0.10,
            "family": 0.07,
            "recording_device": 0.15,
            "microphone_model": 0.35,
            "sound_file_format": 0.12,
            "frequency_khz": 0.45,
            "duration_s": 0.25,
        }


class GroundTruth:
    """Everything the generator planted, for verification."""

    def __init__(self) -> None:
        #: the 134 outdated names (keys) -> accepted name as of 2013
        self.outdated_species: dict[str, str] = {}
        #: the 1 795 names that are still accepted
        self.accepted_species: list[str] = []
        #: record_id -> (stored string, canonical name) for case slips
        self.case_errors: dict[int, tuple[str, str]] = {}
        #: record_id -> (misspelled string, true name) for genuine typos
        self.typos: dict[int, tuple[str, str]] = {}
        #: record_id -> species whose range the coordinates actually match
        self.misidentified: dict[int, str] = {}
        #: record_ids with era-inconsistent device/format metadata
        self.anachronisms: set[int] = set()
        #: species -> home (state, [cities]) used for spatial coherence
        self.home_ranges: dict[str, tuple[str, list[str]]] = {}
        #: record_id -> year, for records generated without coordinates
        self.missing_coordinates: set[int] = set()

    @property
    def distinct_names(self) -> int:
        return len(self.outdated_species) + len(self.accepted_species)

    @property
    def expected_name_accuracy(self) -> float:
        """The paper's accuracy: fraction of distinct names up to date."""
        total = self.distinct_names
        if total == 0:
            return 1.0
        return 1.0 - len(self.outdated_species) / total


def _zipf_allocation(n_items: int, total: int, exponent: float,
                     rng: random.Random) -> list[int]:
    """Counts per item: Zipf-shaped, each >= 1, summing to ``total``."""
    weights = [1.0 / (rank ** exponent) for rank in range(1, n_items + 1)]
    weight_sum = sum(weights)
    counts = [max(1, int(total * w / weight_sum)) for w in weights]
    # repair the rounding drift
    drift = total - sum(counts)
    indices = list(range(n_items))
    while drift != 0:
        index = rng.choice(indices)
        if drift > 0:
            counts[index] += 1
            drift -= 1
        elif counts[index] > 1:
            counts[index] -= 1
            drift += 1
    rng.shuffle(counts)
    return counts


def _typo(name: str, rng: random.Random) -> str:
    """A one-character misspelling that stays a parseable binomial.

    Edits target the epithet (never the genus's capital letter) so the
    damage is subtle — the kind of slip fuzzy resolution can repair.
    """
    genus, __, epithet = name.partition(" ")
    if len(epithet) < 4:
        return name
    style = rng.randrange(3)
    position = rng.randrange(1, len(epithet) - 1)
    if style == 0:  # drop a letter
        mutated = epithet[:position] + epithet[position + 1:]
    elif style == 1:  # double a letter
        mutated = epithet[:position] + epithet[position] + epithet[position:]
    else:  # swap neighbours
        mutated = (epithet[:position] + epithet[position + 1]
                   + epithet[position] + epithet[position + 2:])
    return f"{genus} {mutated}"


def _case_slip(name: str, rng: random.Random) -> str:
    """A capitalization error that normalization can undo."""
    genus, __, epithet = name.partition(" ")
    style = rng.randrange(3)
    if style == 0:
        return f"{genus.upper()} {epithet}"
    if style == 1:
        return f"{genus} {epithet.capitalize()}"
    return f"{genus.lower()} {epithet}"


def generate_collection(
    catalogue: CatalogueOfLife,
    gazetteer: Gazetteer | None = None,
    climate: ClimateArchive | None = None,
    config: CollectionConfig | None = None,
) -> tuple[SoundCollection, GroundTruth]:
    """Generate the collection and its ground truth.

    ``catalogue`` supplies the species names — both the currently
    accepted pool and the outdated pool (names with a published change by
    ``config.as_of_year``).
    """
    config = config or CollectionConfig()
    gazetteer = gazetteer or Gazetteer(seed=config.seed)
    climate = climate or ClimateArchive()
    rng = random.Random(config.seed)
    truth = GroundTruth()

    # ------------------------------------------------------------------
    # 1. choose the species-name pools
    # ------------------------------------------------------------------
    horizon = catalogue.as_of(config.as_of_year)
    outdated_pool = sorted(horizon.outdated_names())
    accepted_pool = sorted(
        set(horizon.species_names()) - set(outdated_pool)
    )
    if len(outdated_pool) < config.n_outdated_species:
        raise ValueError(
            f"catalogue offers {len(outdated_pool)} outdated names, "
            f"{config.n_outdated_species} needed"
        )
    n_accepted = config.n_distinct_species - config.n_outdated_species
    if len(accepted_pool) < n_accepted:
        raise ValueError(
            f"catalogue offers {len(accepted_pool)} accepted names, "
            f"{n_accepted} needed"
        )

    outdated = set()
    anchor = "Elachistocleis ovalis"
    if anchor in outdated_pool:
        outdated.add(anchor)
    remaining = [name for name in outdated_pool if name not in outdated]
    outdated.update(rng.sample(remaining,
                               config.n_outdated_species - len(outdated)))
    accepted = rng.sample(accepted_pool, n_accepted)

    for name in sorted(outdated):
        current, __ = horizon.registry.current_name(name,
                                                    config.as_of_year)
        truth.outdated_species[name] = current
    truth.accepted_species = sorted(accepted)
    species_names = sorted(outdated) + sorted(accepted)
    rng.shuffle(species_names)

    # ------------------------------------------------------------------
    # 2. records per species + home ranges
    # ------------------------------------------------------------------
    counts = _zipf_allocation(len(species_names), config.n_records,
                              config.zipf_exponent, rng)
    states = gazetteer.states("Brasil")
    for name in species_names:
        state = rng.choice(states)
        cities = gazetteer.city_names(country="Brasil", state=state)
        home_cities = rng.sample(cities, min(len(cities),
                                             rng.randint(2, 4)))
        truth.home_ranges[name] = (state, home_cities)

    # ------------------------------------------------------------------
    # 3. emit the records
    # ------------------------------------------------------------------
    collection = SoundCollection()
    record_id = 0
    plan: list[tuple[str, int]] = [
        (name, count) for name, count in zip(species_names, counts)
    ]
    rows: list[SoundRecord] = []
    for name, count in plan:
        for __ in range(count):
            record_id += 1
            rows.append(_make_record(
                record_id, name, catalogue, gazetteer, climate,
                config, rng, truth,
            ))

    # 4. plant misidentifications: swap coordinates between two species
    #    whose home states differ.
    position_of = {record.record_id: index
                   for index, record in enumerate(rows)}
    candidates = [r for r in rows if r.coordinates is not None]
    rng.shuffle(candidates)
    planted = 0
    for record in candidates:
        if planted >= config.n_misidentified:
            break
        this_state = truth.home_ranges.get(record.species, ("", []))[0]
        donors = [
            other for other in candidates
            if other.species != record.species
            and truth.home_ranges.get(other.species, ("", []))[0]
            not in ("", this_state)
            and other.record_id not in truth.misidentified
        ]
        if not donors:
            break
        donor = rng.choice(donors)
        index = position_of[record.record_id]
        rows[index] = record.replace(latitude=donor.latitude,
                                     longitude=donor.longitude,
                                     state=donor.state, city=donor.city)
        truth.misidentified[record.record_id] = donor.species
        planted += 1

    collection.add_many(rows)
    return collection, truth


def _make_record(record_id: int, species_name: str,
                 catalogue: CatalogueOfLife, gazetteer: Gazetteer,
                 climate: ClimateArchive, config: CollectionConfig,
                 rng: random.Random, truth: GroundTruth) -> SoundRecord:
    values: dict[str, Any] = {"record_id": record_id}

    # --- when -----------------------------------------------------------
    # Legacy collections skew old: triangular distribution peaking early.
    year = int(rng.triangular(config.first_year, config.last_year,
                              config.first_year + 12))
    month = rng.randint(1, 12)
    day = rng.randint(1, 28)
    date = _dt.date(year, month, day)
    values["collect_date"] = date
    hour = rng.choices(range(24),
                       weights=[3, 2, 1, 1, 8, 12, 10, 6, 3, 2, 1, 1,
                                1, 1, 1, 2, 3, 6, 12, 14, 10, 8, 6, 4])[0]
    minute = rng.randrange(0, 60, 5)
    values["collect_time"] = f"{hour:02d}:{minute:02d}"

    # --- where -----------------------------------------------------------
    state, home_cities = truth.home_ranges[species_name]
    city = rng.choice(home_cities)
    values["country"] = "Brasil"
    values["state"] = state
    values["city"] = city
    values["location"] = rng.choice([
        f"Fazenda {city.split()[-1]}", f"Reserva {state.split()[0]}",
        f"Mata do {city.split()[0]}", f"Estrada {city} km {rng.randint(1, 80)}",
    ])
    place = gazetteer.try_resolve(country="Brasil", state=state, city=city)
    missing_coords_p = (
        config.pre_gps_missing_coords if year < config.gps_year
        else config.post_gps_missing_coords
    )
    if place is not None and rng.random() >= missing_coords_p:
        values["latitude"] = round(
            place.latitude + rng.gauss(0, 0.05), 5
        )
        values["longitude"] = round(
            place.longitude + rng.gauss(0, 0.05), 5
        )
    else:
        truth.missing_coordinates.add(record_id)

    # --- environment -------------------------------------------------------
    values["habitat"] = rng.choice(HABITATS)
    values["micro_habitat"] = rng.choice(MICRO_HABITATS)
    if place is not None:
        reading = climate.reading(place.latitude, place.longitude, date,
                                  hour=hour)
        values["air_temperature_c"] = round(
            reading.temperature_c + rng.gauss(0, 0.8), 1
        )
        values["atmospheric_conditions"] = (
            reading.conditions
            if reading.conditions in ATMOSPHERIC_CONDITIONS
            else "clear"
        )

    # --- what ------------------------------------------------------------
    lineage = catalogue.backbone.lineage_of(species_name) or {}
    values["phylum"] = lineage.get("phylum")
    values["class_"] = lineage.get("class")
    values["order_"] = lineage.get("order")
    values["family"] = lineage.get("family")
    values["genus"] = lineage.get(
        "genus", species_name.split()[0]
    )
    stored_name = species_name
    if rng.random() < config.case_error_rate:
        stored_name = _case_slip(species_name, rng)
        truth.case_errors[record_id] = (stored_name, species_name)
    elif config.typo_rate and rng.random() < config.typo_rate:
        mutated = _typo(species_name, rng)
        if mutated != species_name:
            stored_name = mutated
            truth.typos[record_id] = (stored_name, species_name)
    values["species"] = stored_name
    values["gender"] = rng.choice(
        ["male", "female", "undetermined", "mixed"]
    )
    values["number_of_individuals"] = rng.choices(
        [1, 2, 3, 4, 5, 8, 12], weights=[50, 20, 10, 8, 6, 4, 2]
    )[0]

    # --- how ------------------------------------------------------------
    devices = devices_available(year)
    microphones = microphones_available(year)
    formats = formats_available(year)
    values["recording_device"] = rng.choice(devices).name if devices else None
    values["microphone_model"] = (
        rng.choice(microphones).name if microphones else None
    )
    values["sound_file_format"] = (
        rng.choice(formats).name if formats else None
    )
    if len(truth.anachronisms) < config.n_anachronisms and rng.random() < 0.02:
        # claim a format from outside the era (a re-digitization slip)
        wrong = [e for e in formats_available(2013)
                 if not e.available_in(year)]
        if wrong:
            values["sound_file_format"] = rng.choice(wrong).name
            truth.anachronisms.add(record_id)
    values["frequency_khz"] = rng.choice(FREQUENCIES_KHZ)
    values["duration_s"] = round(rng.uniform(5, 600), 1)
    values["recordist"] = rng.choice(_RECORDISTS)

    # --- knock out fields per the missingness model -------------------------
    for field, rate in config.missing_rates.items():
        if values.get(field) is not None and rng.random() < rate:
            values[field] = None

    return SoundRecord(**values)
