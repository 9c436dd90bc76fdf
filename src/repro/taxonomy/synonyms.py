"""Dated name changes and synonym chains.

Taxonomy evolves: "species names can change along time, e.g., species
*Elachistocleis ovalis* has had its name changed to *Nomen inquirenda*".
The :class:`SynonymRegistry` records such events with their publication
year and reason; resolving a name *as of* a year follows the chain of
changes published up to that year.

:func:`generate_changes` simulates the evolution of knowledge: each year
a seeded fraction of accepted species is renamed — by genus transfer,
synonymization with another species, spelling emendation, or demotion to
*nomen inquirendum* (a name under investigation).
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator

from repro.errors import TaxonomyError
from repro.taxonomy.backbone import TaxonomicBackbone

__all__ = ["NameChange", "SynonymRegistry", "generate_changes",
           "CHANGE_REASONS"]

CHANGE_REASONS = (
    "genus_transfer",
    "synonymized",
    "spelling_emendation",
    "nomen_inquirendum",
    "new_species_split",
)

#: the paper's real example, always present when anchors are used
ANCHOR_CHANGE = ("Elachistocleis ovalis", "Nomen inquirenda", 2010,
                 "nomen_inquirendum", "Caramaschi 2010, Bol. Mus. Nac. 527")


class NameChange:
    """One published change: ``old_name`` became ``new_name`` in ``year``."""

    __slots__ = ("old_name", "new_name", "year", "reason", "reference")

    def __init__(self, old_name: str, new_name: str, year: int,
                 reason: str = "synonymized", reference: str = "") -> None:
        if reason not in CHANGE_REASONS:
            raise TaxonomyError(f"unknown change reason {reason!r}")
        if old_name == new_name:
            raise TaxonomyError(f"{old_name!r}: change to itself")
        self.old_name = old_name
        self.new_name = new_name
        self.year = year
        self.reason = reason
        self.reference = reference

    def __repr__(self) -> str:
        return (
            f"NameChange({self.old_name!r} -> {self.new_name!r}, "
            f"{self.year}, {self.reason})"
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "old_name": self.old_name, "new_name": self.new_name,
            "year": self.year, "reason": self.reason,
            "reference": self.reference,
        }


class SynonymRegistry:
    """All published name changes, queryable as of any year."""

    def __init__(self, changes: Iterable[NameChange] = ()) -> None:
        self._changes: list[NameChange] = []
        self._by_old: dict[str, list[NameChange]] = {}
        for change in changes:
            self.add(change)

    def add(self, change: NameChange) -> None:
        chain = self._by_old.setdefault(change.old_name, [])
        for existing in chain:
            if existing.year == change.year:
                raise TaxonomyError(
                    f"{change.old_name!r} already changed in {change.year}"
                )
        chain.append(change)
        chain.sort(key=lambda c: c.year)
        self._changes.append(change)

    def __len__(self) -> int:
        return len(self._changes)

    def __iter__(self) -> Iterator[NameChange]:
        return iter(sorted(self._changes,
                           key=lambda c: (c.year, c.old_name)))

    def changed_names(self, as_of_year: int | None = None) -> set[str]:
        """Names that have at least one change published by ``as_of_year``."""
        result = set()
        for change in self._changes:
            if as_of_year is None or change.year <= as_of_year:
                result.add(change.old_name)
        return result

    def current_name(self, name: str,
                     as_of_year: int | None = None) -> tuple[str, list[NameChange]]:
        """Follow the chain of changes from ``name``.

        Returns ``(accepted name, applied changes)``.  Only changes
        published by ``as_of_year`` apply.  Cycles (A->B->A) are broken by
        stopping before revisiting a name.
        """
        applied: list[NameChange] = []
        seen = {name}
        current = name
        while True:
            chain = self._by_old.get(current, ())
            step = None
            for change in chain:
                if as_of_year is not None and change.year > as_of_year:
                    continue
                if applied and change.year < applied[-1].year:
                    continue
                step = change
                break
            if step is None or step.new_name in seen:
                return current, applied
            applied.append(step)
            seen.add(step.new_name)
            current = step.new_name

    def years(self) -> list[int]:
        return sorted({change.year for change in self._changes})


def generate_changes(backbone: TaxonomicBackbone,
                     start_year: int = 1990,
                     end_year: int = 2013,
                     yearly_rate: float = 0.004,
                     seed: int | None = None) -> SynonymRegistry:
    """Simulate taxonomy evolution over ``[start_year, end_year]``.

    Each year, ``yearly_rate`` of the *currently accepted* species names
    receive a change.  With the defaults (24 years x 0.4 %/year) roughly
    9 % of names end up outdated — bracketing the paper's 7 % figure once
    the collection samples names non-uniformly.

    Genus transfers and splits register the new binomial in the backbone
    so later changes can chain onto it.  The paper's own rename
    (:data:`ANCHOR_CHANGE`) is registered first whenever its species is
    in the backbone.
    """
    rng = random.Random(backbone.config.seed if seed is None else seed)
    registry = SynonymRegistry()
    accepted = set(backbone.species_names())
    retired: set[str] = set()

    if ANCHOR_CHANGE[0] in accepted:
        old, new, year, reason, reference = ANCHOR_CHANGE
        registry.add(NameChange(old, new, year, reason, reference))
        retired.add(old)
        accepted.discard(old)

    genus_names = backbone.genus_names()
    for year in range(start_year, end_year + 1):
        pool = sorted(accepted - retired)
        if not pool:
            break
        count = max(0, round(len(pool) * yearly_rate))
        if count == 0 and rng.random() < len(pool) * yearly_rate:
            count = 1
        for old_name in rng.sample(pool, min(count, len(pool))):
            reason = rng.choices(
                CHANGE_REASONS,
                weights=(35, 30, 15, 10, 10),
            )[0]
            new_name = _new_name_for(old_name, reason, backbone,
                                     sorted(accepted - {old_name}),
                                     genus_names, rng)
            if new_name is None or new_name == old_name:
                continue
            try:
                registry.add(NameChange(old_name, new_name, year, reason))
            except TaxonomyError:
                continue
            retired.add(old_name)
            accepted.discard(old_name)
            if reason in ("genus_transfer", "spelling_emendation",
                          "new_species_split"):
                accepted.add(new_name)
    return registry


def _new_name_for(old_name: str, reason: str, backbone: TaxonomicBackbone,
                  accepted_pool: list[str], genus_names: list[str],
                  rng: random.Random) -> str | None:
    genus, __, epithet = old_name.partition(" ")
    if not epithet:
        return None
    if reason == "nomen_inquirendum":
        return "Nomen inquirenda"
    if reason == "synonymized":
        # merged into another accepted species
        return rng.choice(accepted_pool) if accepted_pool else None
    if reason == "spelling_emendation":
        emended = _emend_spelling(epithet, rng)
        new_name = f"{genus} {emended}"
        node = backbone.genus(genus)
        if node is not None:
            backbone.register_species(new_name, node)
        return new_name
    # genus_transfer / new_species_split: move the epithet elsewhere
    candidates = [g for g in genus_names if g != genus]
    if not candidates:
        return None
    target = rng.choice(candidates)
    new_name = f"{target} {epithet}"
    node = backbone.genus(target)
    if node is not None:
        backbone.register_species(new_name, node)
    return new_name


def _emend_spelling(epithet: str, rng: random.Random) -> str:
    """Latin-grammar-style corrections (gender agreement endings)."""
    swaps = [("us", "a"), ("a", "um"), ("um", "us"), ("is", "e"),
             ("ii", "i")]
    rng.shuffle(swaps)
    for old_suffix, new_suffix in swaps:
        if epithet.endswith(old_suffix):
            return epithet[: -len(old_suffix)] + new_suffix
    return epithet + "us"
