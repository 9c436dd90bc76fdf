"""Content-keyed memoization of processor invocations.

The provenance insight (Missier's lifecycle work; the RO-Crate run
profile): once a run's inputs are digested, a byte-identical invocation
can be *reused* instead of re-executed, and the trace can say so
honestly.  :func:`invocation_key` derives a deterministic digest from
(processor name, kind, implementation version, config, bound input
values) via :mod:`repro.hashing`; :class:`ResultCache` maps those
digests to recorded outputs through a :class:`~repro.memo.Memo`, the
bounded, thread-safe, tagged LRU every memo in the system shares.

Safety rules, enforced here and by the engine:

* only JSON-plain input values are keyable — anything carrying live
  objects yields no key and is simply re-executed;
* only *successful* invocations are stored (failures always re-run);
* processors may opt out with ``config["cacheable"] = False`` (the
  species-check persister does: it writes to the database);
* entries are deep-copied on both store and fetch, so a downstream
  processor mutating a replayed value can never corrupt the cache.

A hit is spliced into the trace with a ``wasCachedFrom`` marker naming
the run/processor that actually computed the value, so the exported OPM
provenance never claims a re-execution that did not happen.
"""

from __future__ import annotations

import copy
import datetime as _dt
from typing import Any, Iterable, Mapping

from repro.hashing import canonical_digest
from repro.memo import Memo

__all__ = ["CachedResult", "ResultCache", "invocation_key", "record_key",
           "resource_key"]

#: scalars whose canonical JSON form is a pure function of their value
#: (dates/datetimes serialize via ``default=str``, which is stable)
_PLAIN_SCALARS = (bool, int, float, str, _dt.date, _dt.datetime)


def _json_plain(value: Any) -> bool:
    """True when ``value`` digests stably across processes and runs —
    plain JSON data plus date/datetime scalars."""
    if value is None or isinstance(value, _PLAIN_SCALARS):
        return True
    if isinstance(value, (list, tuple)):
        return all(_json_plain(item) for item in value)
    if isinstance(value, Mapping):
        return all(
            isinstance(key, str) and _json_plain(item)
            for key, item in value.items()
        )
    return False


def invocation_key(processor: Any, implementation: Any,
                   bound: Mapping[str, Any]) -> str | None:
    """The content key of one invocation, or ``None`` when unkeyable.

    The implementation version comes from
    ``config["implementation_version"]`` when declared, else from a
    ``cache_version`` attribute on the resolved implementation, else
    ``"1"`` — bump either to invalidate stale entries after changing a
    processor's behaviour.
    """
    if not _json_plain(processor.config) or not _json_plain(bound):
        return None
    version = str(processor.config.get(
        "implementation_version",
        getattr(implementation, "cache_version", "1"),
    ))
    return canonical_digest({
        "processor": processor.name,
        "kind": processor.kind,
        "version": version,
        "config": processor.config,
        "inputs": dict(bound),
    })


def record_key(record_id: Any) -> str:
    """The tag for one collection row an invocation read."""
    return f"record:{record_id}"


def resource_key(name: str) -> str:
    """The tag for an external resource (taxonomy registry, gazetteer,
    function table) an invocation's output depends on."""
    return f"resource:{name}"


class CachedResult:
    """One memoized invocation: its output ports and where they came
    from (``run_id/processor`` of the execution that computed them)."""

    __slots__ = ("outputs", "source")

    def __init__(self, outputs: dict[str, Any], source: str) -> None:
        self.outputs = outputs
        self.source = source

    def __repr__(self) -> str:
        return f"CachedResult(from {self.source})"


class ResultCache(Memo[str, CachedResult]):
    """A :class:`~repro.memo.Memo` of :class:`CachedResult` entries
    behind a deep-copy boundary.

    Share one instance across engines (or runs of one engine) to make
    warm re-runs skip identical work; ``hits``/``misses`` feed the
    ``engine_cache_*`` telemetry counters and ``repro stats`` panel.
    """

    def get(self, key: str) -> CachedResult | None:
        """Fetch a hit (deep copy) or ``None``; updates hit/miss stats."""
        entry = super().get(key)
        if entry is None:
            return None
        return CachedResult(copy.deepcopy(entry.outputs), entry.source)

    def put(self, key: str, value: CachedResult,
            tags: Iterable[str] = ()) -> None:
        """Store one successful invocation (a deep copy of ``value``).

        Values that cannot be deep-copied (they would not replay safely)
        are skipped and counted under ``cache_store_skipped_total``; only
        the failures deep-copy itself signals — ``TypeError``,
        ``copy.Error``, ``RecursionError`` — are treated as "not
        copyable".  Anything else (say a ``KeyboardInterrupt`` or a bug
        in a value's ``__deepcopy__``) propagates.
        """
        try:
            stored = copy.deepcopy(dict(value.outputs))
        except (TypeError, copy.Error, RecursionError):
            from repro.telemetry import get_telemetry

            get_telemetry().metrics.counter(
                "cache_store_skipped_total", source=value.source).inc()
            return
        super().put(key, CachedResult(stored, value.source), tags)
