"""The vault's deterministic clock.

Audit, repair and migration runs are provenance like any other run:
they carry timestamps.  Wall time would make every run unique and every
test flaky, so the vault ticks a :class:`TickClock` — a simulated clock
advancing a fixed step per reading, the same convention as the workflow
engine's ``SimulatedClock``.  Fixity sweeps and migrations also accept
a caller's clock (``now() -> datetime``); the vault hands them its own.
"""

from __future__ import annotations

import datetime as _dt

__all__ = ["TickClock", "VAULT_EPOCH"]

#: the vault's timeline origin (tz-aware, like DEFAULT_EPOCH)
VAULT_EPOCH = _dt.datetime(2014, 1, 1, tzinfo=_dt.timezone.utc)


class TickClock:
    """A clock starting at :data:`VAULT_EPOCH` and advancing one second
    every time it is read."""

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = VAULT_EPOCH

    def now(self) -> _dt.datetime:
        current = self._now
        self._now = current + _dt.timedelta(seconds=1)
        return current
