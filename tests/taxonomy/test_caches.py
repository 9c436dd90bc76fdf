"""The taxonomy memo: catalogue resolution LRU.

The species-check inner loop re-resolves the same handful of names for
thousands of records; the memo makes the second occurrence free while
staying *correct* across time travel (``as_of_year``) and registry
growth — both are part of the memo key.
"""

from __future__ import annotations

from repro.taxonomy.catalogue import CatalogueOfLife
from repro.taxonomy.nomenclature import levenshtein
from repro.taxonomy.synonyms import NameChange, SynonymRegistry


def _fresh_catalogue(small_backbone, year=2013):
    registry = SynonymRegistry([
        NameChange("Hyla faber", "Boana faber", 2016,
                   reason="genus_transfer"),
    ])
    return CatalogueOfLife(small_backbone, registry, as_of_year=year)


class TestCatalogueMemo:
    def test_repeat_resolution_is_memoized(self, small_backbone,
                                           isolated_telemetry):
        catalogue = _fresh_catalogue(small_backbone)
        name = catalogue.species_names()[0]
        first = catalogue.resolve(name)
        second = catalogue.resolve(name)
        assert second is first  # shared, documented immutable
        assert isolated_telemetry.metrics.value(
            "taxonomy_cache_hits_total", cache="catalogue_resolve") == 1

    def test_memo_respects_knowledge_horizon(self, small_backbone):
        catalogue = CatalogueOfLife(small_backbone, SynonymRegistry(),
                                    as_of_year=2013)
        name = catalogue.species_names()[0]
        catalogue.registry.add(NameChange(name, "Novum nomen", 2016,
                                          reason="synonymized"))
        assert catalogue.resolve(name).status == "accepted"
        catalogue.advance_to(2020)
        after = catalogue.resolve(name)
        assert after.status == "outdated"
        assert after.accepted_name == "Novum nomen"
        catalogue.advance_to(2013)
        assert catalogue.resolve(name).status == "accepted"

    def test_memo_respects_registry_growth(self, small_backbone):
        catalogue = _fresh_catalogue(small_backbone, year=2020)
        name = catalogue.species_names()[3]
        assert catalogue.resolve(name).status == "accepted"
        catalogue.registry.add(NameChange(
            name, "Novum nomen", 2018, reason="synonymized"))
        resolved = catalogue.resolve(name)
        assert resolved.status == "outdated"
        assert resolved.accepted_name == "Novum nomen"

    def test_memo_respects_fuzzy_flag(self, small_backbone):
        catalogue = _fresh_catalogue(small_backbone)
        name = catalogue.species_names()[5]
        fuzzy = catalogue.resolve(name[:-1], fuzzy=True)
        strict = catalogue.resolve(name[:-1], fuzzy=False)
        assert fuzzy.status in ("fuzzy", "accepted")
        assert strict.status in ("not_found", "accepted")

    def test_malformed_names_bypass_memo(self, small_backbone,
                                         isolated_telemetry):
        catalogue = _fresh_catalogue(small_backbone)
        catalogue.resolve("   ")
        catalogue.resolve("   ")
        events = isolated_telemetry.events.events("invalid_name_not_found")
        assert len(events) == 2
        assert isolated_telemetry.metrics.value(
            "taxonomy_cache_hits_total",
            cache="catalogue_resolve") is None

    def test_memo_bounded(self, small_backbone):
        class SmallMemoCatalogue(CatalogueOfLife):
            MEMO_MAX = 4

        catalogue = SmallMemoCatalogue(small_backbone, SynonymRegistry())
        for name in catalogue.species_names()[:10]:
            catalogue.resolve(name)
        assert len(catalogue._memo) <= 4


class TestLevenshteinMemo:
    def test_results_unchanged(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("abc", "abc") == 0
        assert levenshtein("", "abcd") == 4
        assert levenshtein("abcdefgh", "a", limit=2) == 3  # capped
