"""String interning: dictionary-encoding ids to dense ints.

Every identifier the archival store touches — artifact ids, process
ids, agent ids, run ids, account names, edge roles — is interned once
into a :class:`StringPool` and referred to everywhere else by its dense
integer *sid*.  A million-run store repeats the same processor names,
agent ids and content digests over and over; paying for each string
once and shipping 8-byte ints through the columnar segments is the
single biggest memory lever the store has.

The pool is append-only: sids are stable forever, which is what lets
sealed segments stay immutable.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import ProvenanceError

__all__ = ["StringPool"]


class StringPool:
    """An append-only bidirectional string <-> dense-int dictionary."""

    __slots__ = ("_strings", "_sids")

    def __init__(self) -> None:
        self._strings: list[str] = []
        self._sids: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._strings)

    def __contains__(self, text: str) -> bool:
        return text in self._sids

    def __iter__(self) -> Iterator[str]:
        return iter(self._strings)

    def __repr__(self) -> str:
        return f"StringPool({len(self._strings)} strings)"

    def intern(self, text: str) -> int:
        """The sid of ``text``, allocating one on first sight."""
        sid = self._sids.get(text)
        if sid is None:
            sid = len(self._strings)
            self._strings.append(text)
            self._sids[text] = sid
        return sid

    def get(self, text: str) -> int | None:
        """The sid of ``text`` if already interned, else ``None``
        (lookups must never grow the dictionary)."""
        return self._sids.get(text)

    def lookup(self, sid: int) -> str:
        """The string behind ``sid``."""
        try:
            return self._strings[sid]
        except IndexError:
            raise ProvenanceError(
                f"sid {sid} is not in the string pool "
                f"({len(self._strings)} entries)"
            ) from None
