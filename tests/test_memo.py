"""The shared memo primitive under concurrent use."""

import random
import sys
import threading

from repro.memo import Memo

THREADS = 8
STEPS = 20000
KEYS = 24


def _tags(key):
    # two overlapping tag families: one invalidation drops several keys,
    # and every key can be dropped through either of its two tags
    return (f"a{key % 5}", f"b{key % 7}")


def test_concurrent_put_get_invalidate_keeps_memo_consistent(
        isolated_telemetry):
    memo = Memo(16)
    gets = [0] * THREADS
    errors = []
    start = threading.Barrier(THREADS)

    def worker(index):
        rng = random.Random(index)
        try:
            start.wait(timeout=60)
            for step in range(STEPS):
                key = rng.randrange(KEYS)
                roll = rng.random()
                if roll < 0.4:
                    memo.put(key, (index, step), tags=_tags(key))
                elif roll < 0.8:
                    memo.get(key)
                    gets[index] += 1
                else:
                    memo.invalidate_tags(rng.choice(_tags(key)))
        except Exception as error:  # reported by the assertion below
            errors.append(error)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(index,),
                                    daemon=True)
                   for index in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)

    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(memo) <= 16
    assert memo.hits + memo.misses == sum(gets)
    live = set(memo._entries)
    assert memo._key_tags == {key: tuple(sorted(_tags(key)))
                              for key in live}
    expected: dict[str, set[int]] = {}
    for key in live:
        for tag in _tags(key):
            expected.setdefault(tag, set()).add(key)
    assert memo._tag_keys == expected
