"""Acoustic-feature retrieval — the baseline metadata queries beat.

§II-C: "One approach is retrieval based on the analysis of acoustic
features — e.g., by exploiting the physical properties of sound waves.
However, acoustic properties of animal sounds vary widely, hampering
this kind of retrieval.  Another way is to query metadata."

We cannot ship audio, so recordings get *synthetic* acoustic feature
vectors with exactly the statistical structure the paper describes:

* each species has a prototype vector (dominant frequency, bandwidth,
  pulse rate, note duration, spectral entropy, ...), deterministic in
  the species name;
* each recording draws from the prototype with **wide contextual
  variation** — seasonal shift, habitat coloration, background noise —
  "vocalizations are very much sensitive to a wide range of contextual
  variables";
* prototypes of different species overlap, so nearest-neighbour
  retrieval is genuinely hampered, not artificially broken.

:class:`AcousticIndex` offers k-NN search and leave-one-out species
retrieval accuracy — the number bench E8 compares against
metadata-based retrieval.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.hashing import stable_seed
from repro.sounds.record import SoundRecord

__all__ = ["FEATURE_NAMES", "extract_features", "AcousticIndex"]

FEATURE_NAMES = (
    "dominant_frequency_khz",
    "bandwidth_khz",
    "pulse_rate_hz",
    "note_duration_ms",
    "notes_per_call",
    "spectral_entropy",
    "amplitude_modulation",
    "frequency_slope",
)

#: per-feature (low, high) prototype ranges
_RANGES = np.array([
    (0.3, 8.0),     # dominant frequency
    (0.2, 4.0),     # bandwidth
    (5.0, 120.0),   # pulse rate
    (20.0, 800.0),  # note duration
    (1.0, 30.0),    # notes per call
    (0.2, 0.95),    # spectral entropy
    (0.05, 0.9),    # amplitude modulation
    (-2.0, 2.0),    # frequency slope
])

#: fraction of each feature's full range used as within-species sigma —
#: large, per the paper's "vary widely"
_CONTEXT_SIGMA = 0.16
#: extra noise for degraded field recordings
_NOISE_SIGMA = 0.05
#: seed of the sample that retrieval scores draw (the paper run's)
_SAMPLE_SEED = 2013


def _species_generator(species: str) -> np.random.Generator:
    return np.random.default_rng(stable_seed("proto", species))


def _record_generator(species: str, record_id: int) -> np.random.Generator:
    return np.random.default_rng(stable_seed("rec", species, record_id))


def species_prototype(species: str) -> np.ndarray:
    """The species' prototype vector (deterministic in the name)."""
    rng = _species_generator(species)
    lows, highs = _RANGES[:, 0], _RANGES[:, 1]
    return lows + rng.random(len(FEATURE_NAMES)) * (highs - lows)


def extract_features(record: SoundRecord) -> np.ndarray | None:
    """The recording's feature vector; ``None`` without a species label.

    Context shifts are driven by the record's own metadata (month and
    habitat), so two recordings of one species in different conditions
    sound measurably different — the paper's point.
    """
    if record.species is None:
        return None
    prototype = species_prototype(record.species)
    spans = _RANGES[:, 1] - _RANGES[:, 0]
    rng = _record_generator(record.species, record.record_id or 0)

    context = rng.normal(0.0, _CONTEXT_SIGMA, len(FEATURE_NAMES))
    date = record.collect_date
    if date is not None:
        # seasonal shift: calling effort and pitch drift over the year
        seasonal = np.sin(2 * np.pi * (date.month - 1) / 12)
        context += seasonal * np.array(
            [0.05, 0.02, 0.1, -0.05, 0.08, 0.0, 0.02, 0.0])
    if record.habitat is not None:
        # habitat coloration: closed habitats favour lower frequencies
        closed = record.habitat in ("tropical rainforest",
                                    "atlantic forest", "gallery forest")
        context[0] += -0.06 if closed else 0.03
    noise = rng.normal(0.0, _NOISE_SIGMA, len(FEATURE_NAMES))
    features = prototype + (context + noise) * spans
    return np.clip(features, _RANGES[:, 0] * 0.25, _RANGES[:, 1] * 1.5)


class AcousticIndex:
    """A brute-force k-NN index over recording feature vectors."""

    def __init__(self) -> None:
        self._record_ids: list[int] = []
        self._species: list[str] = []
        self._matrix: np.ndarray | None = None
        self._rows: list[np.ndarray] = []
        self._scale: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._record_ids)

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------

    def add(self, record: SoundRecord) -> bool:
        """Index one recording; returns whether it was indexable."""
        features = extract_features(record)
        if features is None:
            return False
        self._record_ids.append(record.record_id)
        self._species.append(record.species)
        self._rows.append(features)
        self._matrix = None
        return True

    def add_all(self, records: Iterable[SoundRecord]) -> int:
        return sum(1 for record in records if self.add(record))

    def _ensure_matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = np.vstack(self._rows)
            spread = self._matrix.std(axis=0)
            self._scale = np.where(spread > 0, spread, 1.0)
        return self._matrix

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def nearest(self, features: np.ndarray, k: int = 5,
                exclude_index: int | None = None) -> list[tuple[int, str, float]]:
        """The k nearest recordings: (record_id, species, distance),
        standardized euclidean distance."""
        matrix = self._ensure_matrix()
        deltas = (matrix - features) / self._scale
        distances = np.sqrt((deltas ** 2).sum(axis=1))
        if exclude_index is not None:
            distances[exclude_index] = np.inf
        order = np.argsort(distances)[:k]
        return [
            (self._record_ids[i], self._species[i], float(distances[i]))
            for i in order
        ]

    def similar_recordings(self, record: SoundRecord,
                           k: int = 5) -> list[tuple[int, str, float]]:
        features = extract_features(record)
        if features is None:
            return []
        exclude = None
        if record.record_id in self._record_ids:
            exclude = self._record_ids.index(record.record_id)
        return self.nearest(features, k=k, exclude_index=exclude)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def retrieval_accuracy(self, sample: int | None = None) -> float:
        """Leave-one-out 1-NN species retrieval accuracy.

        The acoustic baseline's headline number: how often the closest
        *other* recording belongs to the same species.
        """
        n = len(self._record_ids)
        if n < 2:
            return 0.0
        matrix = self._ensure_matrix()
        indices = np.arange(n)
        if sample is not None and sample < n:
            rng = np.random.default_rng(_SAMPLE_SEED)
            indices = rng.choice(n, size=sample, replace=False)
        hits = 0
        for index in indices:
            neighbour = self.nearest(matrix[index], k=1,
                                     exclude_index=int(index))
            if neighbour and neighbour[0][1] == self._species[index]:
                hits += 1
        return hits / len(indices)

    def species_confusions(self, sample: int | None = None
                           ) -> dict[tuple[str, str], int]:
        """(true species, retrieved species) error counts — which taxa
        sound alike."""
        matrix = self._ensure_matrix()
        n = len(self._record_ids)
        indices = np.arange(n)
        if sample is not None and sample < n:
            rng = np.random.default_rng(_SAMPLE_SEED)
            indices = rng.choice(n, size=sample, replace=False)
        confusions: dict[tuple[str, str], int] = {}
        for index in indices:
            neighbour = self.nearest(matrix[index], k=1,
                                     exclude_index=int(index))
            if neighbour and neighbour[0][1] != self._species[index]:
                key = (self._species[index], neighbour[0][1])
                confusions[key] = confusions.get(key, 0) + 1
        return confusions
