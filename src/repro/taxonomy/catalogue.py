"""The Catalogue of Life (simulated).

"Given a species name, if it is no longer valid, the Catalogue of Life
web service informs what is the current up to date species name used."

:class:`CatalogueOfLife` combines a taxonomic backbone with a synonym
registry and answers exactly that question — *as of* a configurable year,
because the whole point of the paper is that the answer changes over
time.  Lookups return a :class:`NameResolution` with one of four
statuses:

* ``accepted`` — the name is currently valid;
* ``outdated`` — the name was valid but has been changed; the resolution
  carries the up-to-date name and the chain of changes;
* ``fuzzy`` — not found exactly, but within edit distance of a known
  name (a probable typo; the resolution suggests it);
* ``not_found`` — unknown to the catalogue.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import InvalidNameError
from repro.memo import Memo
from repro.taxonomy.backbone import TaxonomicBackbone, build_backbone
from repro.taxonomy.nomenclature import closest_names, normalize_name
from repro.taxonomy.synonyms import NameChange, SynonymRegistry, generate_changes

__all__ = ["NameResolution", "CatalogueOfLife"]


class NameResolution:
    """The catalogue's answer for one queried name."""

    __slots__ = ("queried", "status", "accepted_name", "chain", "suggestion")

    def __init__(self, queried: str, status: str,
                 accepted_name: str | None = None,
                 chain: list[NameChange] | None = None,
                 suggestion: str | None = None) -> None:
        self.queried = queried
        self.status = status  # accepted | outdated | fuzzy | not_found
        self.accepted_name = accepted_name
        self.chain = chain or []
        self.suggestion = suggestion

    @property
    def is_outdated(self) -> bool:
        return self.status == "outdated"

    @property
    def is_known(self) -> bool:
        return self.status in ("accepted", "outdated")

    def __repr__(self) -> str:
        extra = ""
        if self.accepted_name and self.accepted_name != self.queried:
            extra = f" -> {self.accepted_name!r}"
        if self.suggestion:
            extra = f" ?= {self.suggestion!r}"
        return f"NameResolution({self.queried!r}: {self.status}{extra})"

    def to_dict(self) -> dict[str, object]:
        return {
            "queried": self.queried,
            "status": self.status,
            "accepted_name": self.accepted_name,
            "chain": [change.to_dict() for change in self.chain],
            "suggestion": self.suggestion,
        }


class CatalogueOfLife:
    """Authoritative species-name resolution as of a given year."""

    #: bounded LRU size for memoized resolutions
    MEMO_MAX = 4096

    def __init__(self, backbone: TaxonomicBackbone | None = None,
                 registry: SynonymRegistry | None = None,
                 as_of_year: int = 2013) -> None:
        self.backbone = backbone or build_backbone()
        if registry is None:
            registry = generate_changes(self.backbone)
        self.registry = registry
        self.as_of_year = as_of_year
        # memoized resolve() answers; the key includes the knowledge
        # horizon and the registry size, so time travel and newly
        # published changes never serve stale answers
        self._memo: Memo[tuple, NameResolution] = Memo(self.MEMO_MAX)

    def __repr__(self) -> str:
        return (
            f"CatalogueOfLife({self.backbone.species_count()} species, "
            f"{len(self.registry)} changes, as of {self.as_of_year})"
        )

    # ------------------------------------------------------------------
    # time travel
    # ------------------------------------------------------------------

    def as_of(self, year: int) -> "CatalogueOfLife":
        """A view of the catalogue at ``year`` (shared backbone/registry)."""
        return CatalogueOfLife(self.backbone, self.registry, as_of_year=year)

    def advance_to(self, year: int) -> None:
        """Move this catalogue's knowledge horizon forward (or back)."""
        self.as_of_year = year

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------

    def resolve(self, name: str, fuzzy: bool = True,
                max_distance: int = 2) -> NameResolution:
        """Resolve ``name`` against the catalogue as of
        :attr:`as_of_year`.

        Answers are memoized (bounded LRU): the species-check inner
        loop re-resolves the same names record after record, run after
        run.  Returned resolutions are shared — treat them as
        immutable.  Malformed names bypass the memo so their telemetry
        event fires on every occurrence.
        """
        try:
            queried = normalize_name(name)
        except InvalidNameError as error:
            from repro.telemetry import get_telemetry

            get_telemetry().events.record("invalid_name_not_found", {
                "step": "catalogue.resolve",
                "raw": name,
                "reason": str(error),
            })
            return NameResolution(name, "not_found")
        memo_key = (queried, fuzzy, max_distance, self.as_of_year,
                    len(self.registry))
        cached = self._memo.get(memo_key)
        if cached is not None:
            from repro.telemetry import get_telemetry

            get_telemetry().metrics.counter(
                "taxonomy_cache_hits_total", cache="catalogue_resolve",
            ).inc()
            return cached
        resolution = self._resolve_uncached(queried, fuzzy, max_distance)
        self._memo.put(memo_key, resolution)
        return resolution

    def _resolve_uncached(self, queried: str, fuzzy: bool,
                          max_distance: int) -> NameResolution:
        current, chain = self.registry.current_name(
            queried, as_of_year=self.as_of_year
        )
        if chain:
            return NameResolution(queried, "outdated",
                                  accepted_name=current, chain=chain)
        if self._is_known_binomial(queried):
            return NameResolution(queried, "accepted", accepted_name=queried)
        if fuzzy:
            hits = closest_names(queried, self._candidate_names(),
                                 max_distance=max_distance)
            if hits:
                return NameResolution(queried, "fuzzy",
                                      suggestion=hits[0][0])
        return NameResolution(queried, "not_found")

    def is_accepted(self, name: str) -> bool:
        return self.resolve(name, fuzzy=False).status == "accepted"

    def accepted_name(self, name: str) -> str | None:
        resolution = self.resolve(name, fuzzy=False)
        return resolution.accepted_name if resolution.is_known else None

    def _is_known_binomial(self, name: str) -> bool:
        if self.backbone.species(name) is not None:
            return True
        # names introduced by changes (e.g. "Nomen inquirenda")
        for change in self.registry:
            if change.new_name == name and change.year <= self.as_of_year:
                return True
        return False

    def _candidate_names(self) -> Iterator[str]:
        return iter(self.backbone.species_names())

    # ------------------------------------------------------------------
    # browsing
    # ------------------------------------------------------------------

    def species_names(self, include_outdated: bool = False) -> list[str]:
        """Accepted names as of the horizon; optionally also outdated
        ones (the union of everything ever valid)."""
        names = set(self.backbone.species_names())
        changed = self.registry.changed_names(self.as_of_year)
        if include_outdated:
            return sorted(names | changed)
        return sorted(names - changed)

    def outdated_names(self) -> list[str]:
        """Every name with a change published by the horizon."""
        return sorted(self.registry.changed_names(self.as_of_year))

    def lineage_of(self, name: str) -> dict[str, str] | None:
        """Lineage of the *accepted* form of ``name``."""
        resolution = self.resolve(name, fuzzy=False)
        if not resolution.is_known or resolution.accepted_name is None:
            return None
        return self.backbone.lineage_of(resolution.accepted_name)

    def stats(self) -> dict[str, int]:
        changed = self.registry.changed_names(self.as_of_year)
        return {
            "backbone_species": self.backbone.species_count(),
            "published_changes": sum(
                1 for change in self.registry
                if change.year <= self.as_of_year
            ),
            "outdated_names": len(changed),
            "as_of_year": self.as_of_year,
        }
