"""The content-addressed store: digests as keys, fixity as identity."""

import sys
import threading

import pytest

from repro.archive.cas import ContentAddressedStore
from repro.errors import FixityError, ObjectMissingError
from repro.hashing import sha256_hex


@pytest.fixture()
def store():
    return ContentAddressedStore("r0")


class TestPutGet:
    def test_key_is_sha256_of_payload(self, store):
        digest = store.put('{"a": 1}')
        assert digest == sha256_hex('{"a": 1}')
        assert store.get(digest) == '{"a": 1}'

    def test_distinct_payloads_distinct_keys(self, store):
        assert store.put("one") != store.put("two")
        assert len(store) == 2

    def test_put_deduplicates(self, store):
        first = store.put("same bytes")
        second = store.put("same bytes")
        assert first == second
        assert len(store) == 1
        assert store.stat(first).refs == 2

    def test_stat_and_exists(self, store):
        digest = store.put("payload", media_type="text/plain")
        assert store.exists(digest)
        stat = store.stat(digest)
        assert stat.size_bytes == len(b"payload")
        assert stat.media_type == "text/plain"
        assert stat.refs == 1
        assert stat.to_dict()["digest"] == digest

    def test_missing_object_errors(self, store):
        assert not store.exists("deadbeef")
        with pytest.raises(ObjectMissingError):
            store.get("deadbeef")
        with pytest.raises(ObjectMissingError):
            store.stat("deadbeef")

    def test_digests_sorted_and_total_bytes(self, store):
        store.put("aa")
        store.put("bbbb")
        assert store.digests() == sorted(store.digests())
        assert store.total_bytes() == 6
        assert len(list(store.objects())) == 2


class TestFixity:
    def test_verify_true_for_intact(self, store):
        digest = store.put("intact")
        assert store.verify(digest)
        assert store.get_verified(digest) == "intact"

    def test_verify_false_for_missing(self, store):
        assert not store.verify("no-such-digest")

    def test_corrupt_breaks_verification_not_lookup(self, store):
        digest = store.put("original")
        store.corrupt(digest)
        assert store.exists(digest)
        assert not store.verify(digest)
        assert store.get(digest) != "original"
        with pytest.raises(FixityError):
            store.get_verified(digest)

    def test_drop_removes_the_replica(self, store):
        digest = store.put("gone soon")
        store.drop(digest)
        assert not store.exists(digest)
        with pytest.raises(ObjectMissingError):
            store.drop(digest)
        with pytest.raises(ObjectMissingError):
            store.corrupt("never-stored")


class TestRestore:
    def test_restore_heals_corruption(self, store):
        digest = store.put("the truth")
        store.corrupt(digest)
        store.restore(digest, "the truth")
        assert store.verify(digest)
        assert store.get_verified(digest) == "the truth"

    def test_restore_inserts_after_drop(self, store):
        digest = store.put("the truth")
        store.drop(digest)
        store.restore(digest, "the truth", media_type="text/plain")
        assert store.verify(digest)
        assert store.stat(digest).media_type == "text/plain"

    def test_restore_refuses_mismatched_payload(self, store):
        digest = store.put("the truth")
        store.corrupt(digest)
        with pytest.raises(FixityError):
            store.restore(digest, "a lie")
        assert not store.verify(digest)


class TestConcurrentPuts:
    def test_every_put_of_one_payload_counts(self, store):
        threads_n, puts_each = 8, 200
        barrier = threading.Barrier(threads_n)
        errors = []

        def worker():
            try:
                barrier.wait(timeout=30)
                for _ in range(puts_each):
                    store.put("one payload")
            except Exception as exc:  # reported through the assert below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker)
                       for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(store) == 1
        assert store.stat(sha256_hex("one payload")).refs == \
            threads_n * puts_each
