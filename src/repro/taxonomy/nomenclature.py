"""Scientific-name handling.

A binomial name is ``Genus epithet`` with optional authorship, e.g.
``Elachistocleis ovalis (Schneider, 1799)``.  This module parses,
validates, normalizes and compares such names; the catalogue and the
metadata-cleaning steps both build on it.
"""

from __future__ import annotations

import re
from typing import Iterable

from repro.errors import InvalidNameError

__all__ = ["ScientificName", "levenshtein", "normalize_name"]

_NAME_PATTERN = re.compile(
    r"^(?P<genus>[A-Z][a-z-]+)"
    r"(?:\s+(?P<epithet>[a-z][a-z-]+))?"
    r"(?:\s+(?P<authorship>\(?[A-Z][\w.\s,&-]*\d{4}\)?))?$"
)


class ScientificName:
    """A parsed scientific name (genus, optional epithet and authorship).

    Instances are immutable and compare by canonical form (genus +
    epithet, authorship excluded — two citations of the same binomial are
    the same name).
    """

    __slots__ = ("genus", "epithet", "authorship")

    def __init__(self, genus: str, epithet: str | None = None,
                 authorship: str | None = None) -> None:
        if not genus or not genus[0].isupper():
            raise InvalidNameError(f"bad genus {genus!r}")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "epithet", epithet)
        object.__setattr__(self, "authorship", authorship)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ScientificName is immutable")

    @classmethod
    def parse(cls, text: str) -> "ScientificName":
        """Parse ``text``; raises :class:`InvalidNameError` when malformed.

        Tolerates extra whitespace and a capitalized epithet (a common
        data-entry error, normalized to lowercase).
        """
        cleaned = normalize_name(text)
        match = _NAME_PATTERN.match(cleaned)
        if match is None:
            raise InvalidNameError(f"not a scientific name: {text!r}")
        return cls(match.group("genus"), match.group("epithet"),
                   match.group("authorship"))

    @classmethod
    def try_parse(cls, text: str) -> "ScientificName | None":
        try:
            return cls.parse(text)
        except InvalidNameError:
            return None

    @property
    def canonical(self) -> str:
        """``Genus epithet`` without authorship; just ``Genus`` for
        genus-rank names."""
        if self.epithet is None:
            return self.genus
        return f"{self.genus} {self.epithet}"

    @property
    def is_binomial(self) -> bool:
        return self.epithet is not None

    def with_genus(self, genus: str) -> "ScientificName":
        """The same epithet transferred to another genus."""
        return ScientificName(genus, self.epithet, None)

    def __str__(self) -> str:
        parts = [self.canonical]
        if self.authorship:
            parts.append(self.authorship)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"ScientificName({self.canonical!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ScientificName):
            return self.canonical == other.canonical
        if isinstance(other, str):
            return self.canonical == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.canonical)


def normalize_name(text: str) -> str:
    """Collapse whitespace; fix an all-caps genus and a capitalized
    epithet — the two syntactic slips the paper's stage-1 cleaning
    handles."""
    parts = text.split()
    if not parts:
        raise InvalidNameError("empty name")
    genus = parts[0]
    if genus.isupper():
        genus = genus.capitalize()
    elif genus.islower():
        genus = genus.capitalize()
    normalized = [genus]
    if len(parts) >= 2:
        epithet = parts[1]
        plain = epithet.isalpha() or epithet.replace("-", "").isalpha()
        if plain and epithet[0].isupper():
            epithet = epithet.lower()
        normalized.append(epithet)
    normalized.extend(parts[2:])
    return " ".join(normalized)


def levenshtein(left: str, right: str, limit: int | None = None) -> int:
    """Edit distance between two strings.

    With ``limit`` set, returns ``limit + 1`` as soon as the distance
    provably exceeds it (band optimization) — the fuzzy resolver calls
    this over thousands of candidate names.
    """
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    if limit is not None and abs(len(left) - len(right)) > limit:
        return limit + 1
    previous = list(range(len(left) + 1))
    for row, right_char in enumerate(right, start=1):
        current = [row]
        best = row
        for column, left_char in enumerate(left, start=1):
            cost = 0 if left_char == right_char else 1
            value = min(
                previous[column] + 1,
                current[column - 1] + 1,
                previous[column - 1] + cost,
            )
            current.append(value)
            best = min(best, value)
        if limit is not None and best > limit:
            return limit + 1
        previous = current
    distance = previous[-1]
    # the row-minimum band check can pass while the final cell still
    # exceeds the limit; keep the contract of capping at limit + 1
    if limit is not None and distance > limit:
        return limit + 1
    return distance


def closest_names(target: str, candidates: Iterable[str],
                  max_distance: int = 2) -> list[tuple[str, int]]:
    """Candidates within ``max_distance`` edits of ``target``, sorted by
    (distance, name)."""
    hits: list[tuple[str, int]] = []
    for candidate in candidates:
        distance = levenshtein(target, candidate, limit=max_distance)
        if distance <= max_distance:
            hits.append((candidate, distance))
    hits.sort(key=lambda pair: (pair[1], pair[0]))
    return hits
