"""Shadows-style cross-referencing of publications.

The paper's conclusion: a first prototype (ref. [37], "Shadows")
"shows how such mechanisms allow cross-referencing scientific papers
across distinct research communities, even when they appear to work in
seemingly unrelated issues".

Here the mechanism is reproduced on top of the curated taxonomy:

* a :class:`Publication` mentions species *by the name that was valid
  when it was written* — a 1995 ecology paper and a 2012 bioacoustics
  paper may cite the same frog under different binomials;
* a :class:`Shadow` is the structured projection of a publication into
  triples (Dublin Core + ``repro:mentionsTaxon``);
* the :class:`CrossReferencer` links publications that share a taxon —
  either **raw** (exact name match only) or **curated** (names first
  resolved through the synonym registry to their accepted form).

The curated mode finds every raw link plus the ones hidden behind
taxonomy evolution — exactly the reuse dividend the paper attributes to
metadata curation.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.linkeddata.triples import IRI, Literal, TripleStore
from repro.linkeddata.vocab import DC, RDF, REPRO
from repro.taxonomy.catalogue import CatalogueOfLife

__all__ = ["Publication", "Shadow", "CrossReference", "CrossReferencer",
           "generate_publications"]

COMMUNITIES = ("bioacoustics", "ecology", "taxonomy", "conservation")


class Publication:
    """A (synthetic) scientific paper."""

    __slots__ = ("pub_id", "title", "authors", "community", "year",
                 "species_mentioned")

    def __init__(self, pub_id: str, title: str, authors: list[str],
                 community: str, year: int,
                 species_mentioned: list[str]) -> None:
        if community not in COMMUNITIES:
            raise ValueError(f"unknown community {community!r}")
        self.pub_id = pub_id
        self.title = title
        self.authors = authors
        self.community = community
        self.year = year
        self.species_mentioned = list(species_mentioned)

    @property
    def iri(self) -> IRI:
        return REPRO[f"publication/{self.pub_id}"]

    def __repr__(self) -> str:
        return (
            f"Publication({self.pub_id}, {self.community} {self.year}, "
            f"{len(self.species_mentioned)} taxa)"
        )


class Shadow:
    """The structured projection ("shadow") of one publication."""

    def __init__(self, publication: Publication) -> None:
        self.publication = publication

    def to_triples(self, store: TripleStore | None = None) -> TripleStore:
        from repro.linkeddata.publisher import species_iri

        store = store if store is not None else TripleStore()
        publication = self.publication
        subject = publication.iri
        store.add(subject, RDF.type, REPRO.Publication)
        store.add(subject, DC.title, Literal(publication.title))
        store.add(subject, DC.date, Literal(publication.year))
        store.add(subject, REPRO.community,
                  Literal(publication.community))
        for author in publication.authors:
            store.add(subject, DC.creator, Literal(author))
        for name in publication.species_mentioned:
            store.add(subject, REPRO.mentionsTaxon, species_iri(name))
            store.add(subject, REPRO.mentionsTaxonName, Literal(name))
        return store


class CrossReference:
    """Two publications linked through a shared taxon."""

    __slots__ = ("left", "right", "taxon", "via")

    def __init__(self, left: Publication, right: Publication,
                 taxon: str, via: str) -> None:
        self.left = left
        self.right = right
        self.taxon = taxon
        self.via = via  # "exact" | "synonym"

    @property
    def crosses_communities(self) -> bool:
        return self.left.community != self.right.community

    def __repr__(self) -> str:
        return (
            f"CrossReference({self.left.pub_id} <-> {self.right.pub_id} "
            f"via {self.taxon!r} [{self.via}])"
        )

    def key(self) -> tuple[str, str, str]:
        ids = sorted((self.left.pub_id, self.right.pub_id))
        return (ids[0], ids[1], self.taxon)


class CrossReferencer:
    """Finds taxon-mediated links between publications."""

    def __init__(self, catalogue: CatalogueOfLife) -> None:
        self.catalogue = catalogue

    def _canonical(self, name: str, curated: bool) -> str:
        if not curated:
            return name
        current, __ = self.catalogue.registry.current_name(
            name, self.catalogue.as_of_year)
        return current

    def links(self, publications: Iterable[Publication],
              curated: bool = True) -> list[CrossReference]:
        """All pairwise links; ``curated=False`` is the raw baseline."""
        publications = list(publications)
        by_taxon: dict[str, list[tuple[Publication, str]]] = {}
        for publication in publications:
            for name in publication.species_mentioned:
                canonical = self._canonical(name, curated)
                by_taxon.setdefault(canonical, []).append(
                    (publication, name))
        seen: set[tuple[str, str, str]] = set()
        results: list[CrossReference] = []
        for taxon, mentions in sorted(by_taxon.items()):
            for i, (left, left_name) in enumerate(mentions):
                for right, right_name in mentions[i + 1:]:
                    if left.pub_id == right.pub_id:
                        continue
                    via = "exact" if left_name == right_name else "synonym"
                    reference = CrossReference(left, right, taxon, via)
                    if reference.key() in seen:
                        continue
                    seen.add(reference.key())
                    results.append(reference)
        return results

    def cross_community_links(self, publications: Iterable[Publication],
                              curated: bool = True) -> list[CrossReference]:
        return [link for link in self.links(publications, curated=curated)
                if link.crosses_communities]

    def curation_dividend(self,
                          publications: Iterable[Publication]) -> dict[str, int]:
        """How many links curation adds over the raw baseline."""
        publications = list(publications)
        raw = self.links(publications, curated=False)
        curated = self.links(publications, curated=True)
        return {
            "raw_links": len(raw),
            "curated_links": len(curated),
            "recovered_by_curation": len(curated) - len(raw),
            "synonym_links": sum(
                1 for link in curated if link.via == "synonym"),
        }


_TITLE_TEMPLATES = (
    "Vocal repertoire of {species}",
    "Habitat use by {species} in southeastern Brazil",
    "Taxonomic notes on {species}",
    "Population decline of {species} in the Cerrado",
    "Acoustic niche partitioning involving {species}",
    "Reproductive phenology of {species}",
)

_AUTHOR_POOL = (
    "Almeida", "Barbosa", "Cardoso", "Duarte", "Esteves", "Fonseca",
    "Garcia", "Hoffmann", "Iglesias", "Junqueira",
)


def generate_publications(catalogue: CatalogueOfLife, count: int = 40,
                          first_year: int = 1985, last_year: int = 2013,
                          seed: int = 2013) -> list[Publication]:
    """Synthetic publications citing species by era-correct names.

    A publication written in year *y* cites each species by the name
    that was accepted *as of y* — older papers therefore carry names
    that have since changed, which is what makes raw cross-referencing
    miss links.
    """
    rng = random.Random(seed)
    species_pool = catalogue.as_of(first_year).species_names()
    publications: list[Publication] = []
    for index in range(count):
        year = rng.randint(first_year, last_year)
        community = rng.choice(COMMUNITIES)
        mentioned: list[str] = []
        for name in rng.sample(species_pool,
                               min(len(species_pool), rng.randint(1, 4))):
            # the name as known when the paper was written
            current, __ = catalogue.registry.current_name(name, year)
            mentioned.append(current)
        title = rng.choice(_TITLE_TEMPLATES).format(species=mentioned[0])
        authors = rng.sample(_AUTHOR_POOL, rng.randint(1, 3))
        publications.append(Publication(
            f"pub-{index + 1:03d}", title, authors, community, year,
            mentioned))
    return publications
