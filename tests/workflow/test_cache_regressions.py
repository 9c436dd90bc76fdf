"""Regression (satellite bugfix): ``ResultCache.put`` used to swallow
*every* deep-copy failure with a blanket ``except Exception`` — a buggy
``__deepcopy__`` or an interrupt was silently eaten and the entry
dropped with no trace.  Now only the failures deep-copy itself signals
(``TypeError``, ``copy.Error``, ``RecursionError``) skip the store, and
skips are counted under ``cache_store_skipped_total``."""

import copy

import pytest

from repro.telemetry import get_telemetry
from repro.workflow.cache import CachedResult, ResultCache


class NotCopyable:
    def __deepcopy__(self, memo):
        raise TypeError("not copyable")


class CopyModuleFailure:
    def __deepcopy__(self, memo):
        raise copy.Error("pickle says no")


class TooDeep:
    def __deepcopy__(self, memo):
        raise RecursionError("maximum recursion depth exceeded")


class BuggyDeepcopy:
    def __deepcopy__(self, memo):
        raise ValueError("a bug in __deepcopy__, not a copy failure")


def _skip_count() -> float:
    metrics = get_telemetry().metrics.snapshot()
    return sum(
        data["value"] for series, data in metrics.items()
        if series.split("{", 1)[0] == "cache_store_skipped_total"
    )


@pytest.fixture(autouse=True)
def fresh_telemetry():
    get_telemetry().reset()
    yield
    get_telemetry().reset()


@pytest.mark.parametrize("value", [NotCopyable(), CopyModuleFailure(),
                                   TooDeep()])
def test_uncopyable_value_skipped_and_counted(value):
    cache = ResultCache()
    before = _skip_count()
    cache.put("k", CachedResult({"out": value}, "proc"))
    assert cache.get("k") is None
    assert len(cache) == 0
    assert _skip_count() == before + 1


def test_unexpected_deepcopy_exception_propagates():
    # pre-fix this was silently swallowed
    cache = ResultCache()
    with pytest.raises(ValueError, match="a bug in __deepcopy__"):
        cache.put("k", CachedResult({"out": BuggyDeepcopy()}, "proc"))
    assert _skip_count() == 0


def test_copyable_values_still_cached():
    cache = ResultCache()
    cache.put("k", CachedResult({"out": [1, 2, 3]}, "proc"))
    hit = cache.get("k")
    assert hit is not None
    assert hit.outputs == {"out": [1, 2, 3]}
    assert _skip_count() == 0
