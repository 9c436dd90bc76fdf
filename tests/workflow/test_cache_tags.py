"""Tag-based invalidation on the result cache."""

from repro.workflow.cache import (
    CachedResult,
    ResultCache,
    record_key,
    resource_key,
)


def put(cache, key, tags=()):
    cache.put(key, CachedResult({"x": key}, f"run/{key}"), tags=tags)


class TestKeys:
    def test_record_key(self):
        assert record_key(42) == "record:42"

    def test_resource_key(self):
        assert resource_key("catalogue") == "resource:catalogue"


class TestTagging:
    def test_put_records_tags_both_directions(self):
        cache = ResultCache()
        put(cache, "k1", tags=["record:1", "shard:0"])
        assert cache.tags_of("k1") == ("record:1", "shard:0")
        assert cache.keys_for_tag("record:1") == ("k1",)
        assert cache.stats()["tags"] == 2

    def test_untagged_put_unaffected(self):
        cache = ResultCache()
        put(cache, "k1")
        assert cache.tags_of("k1") == ()
        assert cache.invalidate_tags("anything") == 0
        assert cache.get("k1") is not None

    def test_tags_deduplicated_and_sorted(self):
        cache = ResultCache()
        put(cache, "k1", tags=["b", "a", "b"])
        assert cache.tags_of("k1") == ("a", "b")

    def test_reput_replaces_tags(self):
        cache = ResultCache()
        put(cache, "k1", tags=["old"])
        put(cache, "k1", tags=["new"])
        assert cache.keys_for_tag("old") == ()
        assert cache.keys_for_tag("new") == ("k1",)


class TestInvalidation:
    def test_invalidate_drops_exactly_the_tagged_keys(self):
        cache = ResultCache()
        put(cache, "k1", tags=["record:1"])
        put(cache, "k2", tags=["record:1", "record:2"])
        put(cache, "k3", tags=["record:3"])
        assert cache.invalidate_tags("record:1") == 2
        assert cache.get("k1") is None
        assert cache.get("k2") is None
        assert cache.get("k3") is not None
        assert cache.stats()["invalidations"] == 2

    def test_invalidate_multiple_tags_counts_each_key_once(self):
        cache = ResultCache()
        put(cache, "k1", tags=["a", "b"])
        assert cache.invalidate_tags("a", "b") == 1

    def test_invalidate_unknown_tag_is_zero(self):
        cache = ResultCache()
        put(cache, "k1", tags=["a"])
        assert cache.invalidate_tags("nope") == 0
        assert cache.get("k1") is not None

    def test_invalidation_counter_flows_to_telemetry(self,
                                                     isolated_telemetry):
        cache = ResultCache()
        put(cache, "k1", tags=["a"])
        cache.invalidate_tags("a")
        assert isolated_telemetry.metrics.counter(
            "cache_tag_invalidations_total").value == 1


class TestEvictionAndClear:
    def test_eviction_detaches_tag_maps(self):
        cache = ResultCache(max_entries=2)
        put(cache, "k1", tags=["t1"])
        put(cache, "k2", tags=["t2"])
        put(cache, "k3", tags=["t3"])  # evicts k1
        assert cache.get("k1") is None
        assert cache.keys_for_tag("t1") == ()
        assert cache.stats()["tags"] == 2
        # invalidating the stale tag is a clean no-op
        assert cache.invalidate_tags("t1") == 0

    def test_clear_resets_tag_state(self):
        cache = ResultCache()
        put(cache, "k1", tags=["a"])
        cache.clear()
        assert cache.stats()["tags"] == 0
        assert cache.keys_for_tag("a") == ()
