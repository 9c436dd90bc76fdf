"""A seeded synthetic Neotropical taxonomic backbone.

The paper's collection covers "all vertebrate groups (fishes, amphibians,
reptiles, birds and mammals) and some groups of invertebrates (as insects
and arachnids)".  :func:`build_backbone` generates a deterministic
backbone with exactly that composition: latin-ish genus and epithet names
are produced from syllable tables, organized under real phylum/class
names, with synthetic orders, families and genera.

A handful of *anchor species* named in the paper (e.g. *Elachistocleis
ovalis*, *Scinax fuscomarginatus*) are placed in their real higher taxa
so the case study can tell the exact story the paper tells.
"""

from __future__ import annotations

import random
from typing import Mapping

from repro.errors import TaxonomyError
from repro.taxonomy.model import Rank, Taxon

__all__ = ["BackboneConfig", "TaxonomicBackbone", "build_backbone",
           "ANCHOR_SPECIES"]

# class name -> (phylum, share of total species)
_CLASS_SHARES: dict[str, tuple[str, float]] = {
    "Amphibia": ("Chordata", 0.30),
    "Aves": ("Chordata", 0.34),
    "Mammalia": ("Chordata", 0.10),
    "Reptilia": ("Chordata", 0.08),
    "Actinopterygii": ("Chordata", 0.06),
    "Insecta": ("Arthropoda", 0.09),
    "Arachnida": ("Arthropoda", 0.03),
}

#: species the paper names, with their real higher taxa
ANCHOR_SPECIES: list[dict[str, str]] = [
    {"class": "Amphibia", "order": "Anura", "family": "Microhylidae",
     "genus": "Elachistocleis", "species": "Elachistocleis ovalis"},
    {"class": "Amphibia", "order": "Anura", "family": "Microhylidae",
     "genus": "Elachistocleis", "species": "Elachistocleis bicolor"},
    {"class": "Amphibia", "order": "Anura", "family": "Hylidae",
     "genus": "Scinax", "species": "Scinax fuscomarginatus"},
    {"class": "Amphibia", "order": "Anura", "family": "Hylidae",
     "genus": "Scinax", "species": "Scinax fuscovarius"},
]

_GENUS_STEMS = [
    "Lepto", "Rhino", "Phyllo", "Micro", "Macro", "Chloro", "Xeno",
    "Brady", "Tachy", "Melano", "Leuco", "Erythro", "Cyano", "Platy",
    "Steno", "Eury", "Hetero", "Homo", "Pseudo", "Para", "Neo", "Proto",
    "Amphi", "Hemi", "Poly", "Oligo", "Tricho", "Ophio", "Dendro",
    "Hylo", "Pithec", "Myrme", "Ornitho", "Ichthyo", "Herpeto", "Entomo",
]
_GENUS_SUFFIXES = [
    "dactylus", "batrachus", "phrynus", "hyla", "mys", "gale", "cebus",
    "saurus", "gnathus", "rhynchus", "pterus", "cephalus", "soma",
    "thrix", "urus", "pus", "nax", "cles", "mantis", "icola", "ornis",
]
_EPITHET_STEMS = [
    "virid", "nigr", "alb", "rubr", "flav", "fusc", "margin", "punct",
    "lineat", "maculat", "ocellat", "gracil", "robust", "minut", "gigant",
    "montan", "fluviatil", "silvatic", "campestr", "austral", "boreal",
    "orient", "occident", "paulens", "amazonic", "atlantic", "cerrad",
    "nobil", "vulgar", "elegans", "ornat", "pictur", "striat", "vittat",
]
_EPITHET_SUFFIXES = [
    "is", "us", "a", "um", "ensis", "icus", "ica", "atus", "ata",
    "osus", "osa", "ifer", "icola", "oides",
]


class BackboneConfig:
    """Generation parameters for :func:`build_backbone`.

    Defaults are calibrated to the paper's scale: the collection uses
    1 929 distinct species names, so the backbone offers ~2 600 accepted
    species for the collection generator to draw from.
    """

    def __init__(self, seed: int = 2013, total_species: int = 2600,
                 orders_per_class: tuple[int, int] = (3, 7),
                 families_per_order: tuple[int, int] = (2, 6),
                 genera_per_family: tuple[int, int] = (2, 8),
                 class_shares: Mapping[str, tuple[str, float]] | None = None,
                 include_anchors: bool = True) -> None:
        self.seed = seed
        self.total_species = total_species
        self.orders_per_class = orders_per_class
        self.families_per_order = families_per_order
        self.genera_per_family = genera_per_family
        self.class_shares = dict(class_shares or _CLASS_SHARES)
        self.include_anchors = include_anchors
        if total_species < len(ANCHOR_SPECIES):
            raise TaxonomyError("total_species too small for the anchors")


class TaxonomicBackbone:
    """The generated tree plus fast name lookups."""

    def __init__(self, root: Taxon, config: BackboneConfig) -> None:
        self.root = root
        self.config = config
        self._species_by_name: dict[str, Taxon] = {}
        self._genera_by_name: dict[str, Taxon] = {}
        for node in root.walk():
            if node.rank is Rank.SPECIES:
                self._species_by_name[node.name] = node
            elif node.rank is Rank.GENUS:
                self._genera_by_name[node.name] = node

    def __repr__(self) -> str:
        return (
            f"TaxonomicBackbone({len(self._species_by_name)} species, "
            f"seed={self.config.seed})"
        )

    def species(self, name: str) -> Taxon | None:
        return self._species_by_name.get(name)

    def genus(self, name: str) -> Taxon | None:
        return self._genera_by_name.get(name)

    def species_names(self) -> list[str]:
        return sorted(self._species_by_name)

    def genus_names(self) -> list[str]:
        return sorted(self._genera_by_name)

    def species_count(self) -> int:
        return len(self._species_by_name)

    def lineage_of(self, species_name: str) -> dict[str, str] | None:
        node = self.species(species_name)
        return None if node is None else node.lineage()

    def register_species(self, name: str, genus: Taxon) -> Taxon:
        """Add one species (used when a rename invents a new binomial)."""
        if name in self._species_by_name:
            return self._species_by_name[name]
        taxon = Taxon(self._next_id(), name, Rank.SPECIES, parent=genus)
        self._species_by_name[name] = taxon
        return taxon

    def _next_id(self) -> int:
        return max(node.taxon_id for node in self.root.walk()) + 1


class _NameForge:
    """Collision-free latin-ish name generation."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._used_genera: set[str] = set()
        self._used_binomials: set[str] = set()

    def reserve_genus(self, name: str) -> None:
        self._used_genera.add(name)

    def reserve_binomial(self, name: str) -> None:
        self._used_binomials.add(name)

    _CONNECTORS = ("", "", "o", "i", "eno", "ato", "ulo")

    def genus(self) -> str:
        for __ in range(100_000):
            name = (
                self._rng.choice(_GENUS_STEMS)
                + self._rng.choice(self._CONNECTORS)
                + self._rng.choice(_GENUS_SUFFIXES)
            ).capitalize()
            if name not in self._used_genera:
                self._used_genera.add(name)
                return name
        raise TaxonomyError("genus namespace exhausted")

    def epithet(self, genus: str) -> str:
        for __ in range(10_000):
            epithet = (
                self._rng.choice(_EPITHET_STEMS)
                + self._rng.choice(_EPITHET_SUFFIXES)
            )
            binomial = f"{genus} {epithet}"
            if binomial not in self._used_binomials:
                self._used_binomials.add(binomial)
                return epithet
        raise TaxonomyError(f"epithet namespace exhausted for {genus}")

    _ORDINALS = ("primi", "secundi", "tertii", "quarti", "quinti",
                 "sexti", "septimi", "octavi", "noni", "decimi")

    def order_name(self, class_name: str, position: int) -> str:
        # "Aves" + position 2 -> "Avesecundiformes": digit-free, unique
        # within the class, and shaped like a real order name.
        ordinal = self._ORDINALS[(position - 1) % len(self._ORDINALS)]
        return f"{class_name}{ordinal}formes"

    def family_name(self) -> str:
        for __ in range(10_000):
            stem = self._rng.choice(_GENUS_STEMS)
            suffix = self._rng.choice(_GENUS_SUFFIXES)
            name = f"{stem}{suffix}idae".capitalize()
            if name not in self._used_genera:
                self._used_genera.add(name)
                return name
        raise TaxonomyError("family namespace exhausted")


def build_backbone(config: BackboneConfig | None = None) -> TaxonomicBackbone:
    """Generate the backbone deterministically from ``config.seed``."""
    config = config or BackboneConfig()
    rng = random.Random(config.seed)
    forge = _NameForge(rng)

    next_id = iter(range(1, 10_000_000))
    kingdom = Taxon(next(next_id), "Animalia", Rank.KINGDOM)
    phyla: dict[str, Taxon] = {}
    classes: dict[str, Taxon] = {}
    for class_name, (phylum_name, __) in config.class_shares.items():
        if phylum_name not in phyla:
            phyla[phylum_name] = Taxon(next(next_id), phylum_name,
                                       Rank.PHYLUM, parent=kingdom)
        classes[class_name] = Taxon(next(next_id), class_name, Rank.CLASS,
                                    parent=phyla[phylum_name])

    # anchors first (fixed structure, reserved names)
    anchor_budget = 0
    anchor_parents: dict[tuple[str, str], Taxon] = {}
    if config.include_anchors:
        for anchor in ANCHOR_SPECIES:
            class_taxon = classes.get(anchor["class"])
            if class_taxon is None:
                continue
            order_key = (anchor["class"], anchor["order"])
            if order_key not in anchor_parents:
                anchor_parents[order_key] = Taxon(
                    next(next_id), anchor["order"], Rank.ORDER,
                    parent=class_taxon,
                )
            order_taxon = anchor_parents[order_key]
            family_key = (anchor["order"], anchor["family"])
            if family_key not in anchor_parents:
                anchor_parents[family_key] = Taxon(
                    next(next_id), anchor["family"], Rank.FAMILY,
                    parent=order_taxon,
                )
                forge.reserve_genus(anchor["family"])
            family_taxon = anchor_parents[family_key]
            genus_key = (anchor["family"], anchor["genus"])
            if genus_key not in anchor_parents:
                anchor_parents[genus_key] = Taxon(
                    next(next_id), anchor["genus"], Rank.GENUS,
                    parent=family_taxon,
                )
                forge.reserve_genus(anchor["genus"])
            Taxon(next(next_id), anchor["species"], Rank.SPECIES,
                  parent=anchor_parents[genus_key])
            forge.reserve_binomial(anchor["species"])
            anchor_budget += 1

    remaining = config.total_species - anchor_budget
    for class_name, (__, share) in config.class_shares.items():
        class_taxon = classes[class_name]
        species_budget = max(1, round(remaining * share))
        order_count = rng.randint(*config.orders_per_class)
        genera: list[Taxon] = []
        for position in range(1, order_count + 1):
            order_taxon = Taxon(next(next_id),
                                forge.order_name(class_name, position),
                                Rank.ORDER, parent=class_taxon)
            for __unused in range(rng.randint(*config.families_per_order)):
                family_taxon = Taxon(next(next_id), forge.family_name(),
                                     Rank.FAMILY, parent=order_taxon)
                for __unused2 in range(rng.randint(*config.genera_per_family)):
                    genera.append(Taxon(next(next_id), forge.genus(),
                                        Rank.GENUS, parent=family_taxon))
        for __unused in range(species_budget):
            genus_taxon = rng.choice(genera)
            epithet = forge.epithet(genus_taxon.name)
            Taxon(next(next_id), f"{genus_taxon.name} {epithet}",
                  Rank.SPECIES, parent=genus_taxon)

    return TaxonomicBackbone(kingdom, config)
