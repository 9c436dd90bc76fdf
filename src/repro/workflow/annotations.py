"""Annotation assertions and quality annotations.

The paper's Listing 1 shows Taverna annotation beans whose free-text body
carries quality statements::

    Q(reputation): 1;
    Q(availability): 0.9;

:class:`QualityAnnotation` is the parsed form — a mapping from quality
*dimension* name to a numeric value in ``[0, 1]``.
:class:`AnnotationAssertion` is the carrier: free text plus author and
timestamp, attached to a processor or a whole workflow.  The Workflow
Adapter (:mod:`repro.core.adapter`) creates these without touching the
workflow's dataflow structure — the paper's key design constraint.
"""

from __future__ import annotations

import datetime as _dt
import re
from typing import Any, Iterator, Mapping

from repro.errors import WorkflowError

__all__ = ["AnnotationAssertion", "QualityAnnotation"]

_Q_PATTERN = re.compile(
    r"Q\(\s*(?P<dimension>[A-Za-z_][\w.-]*)\s*\)\s*:\s*(?P<value>[-+0-9.eE]+)\s*;"
)


class QualityAnnotation(Mapping[str, float]):
    """Parsed ``Q(dimension): value;`` statements.

    Behaves as an immutable mapping ``{dimension: value}``.  Values are
    clamped to be floats but *not* silently clamped to [0, 1]; out-of-range
    values raise, because a reputation of 7 is a typo, not an opinion.
    """

    def __init__(self, values: Mapping[str, float]) -> None:
        cleaned: dict[str, float] = {}
        for dimension, value in values.items():
            number = float(value)
            if not 0.0 <= number <= 1.0:
                raise WorkflowError(
                    f"quality annotation Q({dimension}) = {number} "
                    "is outside [0, 1]"
                )
            cleaned[dimension] = number
        self._values = cleaned

    # Mapping protocol -------------------------------------------------

    def __getitem__(self, dimension: str) -> float:
        return self._values[dimension]

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._values))

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._values.items()))
        return f"QualityAnnotation({inner})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QualityAnnotation):
            return self._values == other._values
        if isinstance(other, Mapping):
            return self._values == dict(other)
        return NotImplemented

    # Text round trip ----------------------------------------------------

    def to_text(self) -> str:
        """Render as Listing-1-style statements, one per line."""
        lines = []
        for dimension in self:
            value = self._values[dimension]
            # integral values render paper-style ("1"); everything else
            # uses repr, which round-trips floats exactly
            rendered = str(int(value)) if value == int(value) else repr(value)
            lines.append(f"Q({dimension}): {rendered};")
        return "\n".join(lines)

    @classmethod
    def parse(cls, text: str) -> "QualityAnnotation":
        """Parse every ``Q(dim): value;`` statement out of ``text``.

        Text that contains no statements parses to an empty annotation —
        annotation bodies may also carry ordinary prose.
        """
        values: dict[str, float] = {}
        for match in _Q_PATTERN.finditer(text):
            values[match.group("dimension")] = float(match.group("value"))
        return cls(values)

    def merged_with(self, other: "QualityAnnotation") -> "QualityAnnotation":
        """Right-biased merge (``other`` wins on shared dimensions)."""
        merged = dict(self._values)
        merged.update(other._values)
        return QualityAnnotation(merged)


class AnnotationAssertion:
    """One annotation attached to a workflow element.

    Mirrors Taverna's ``AnnotationAssertionImpl``: free text, creation
    timestamp and creator.  The quality content, if any, is exposed via
    :attr:`quality`.
    """

    def __init__(self, text: str,
                 date: _dt.datetime | None = None,
                 creator: str = "") -> None:
        self.text = text
        self.date = date or _dt.datetime(2013, 11, 12, 19, 58, 9)
        self.creator = creator

    @property
    def quality(self) -> QualityAnnotation:
        """The ``Q(...)`` statements parsed from :attr:`text`."""
        return QualityAnnotation.parse(self.text)

    @classmethod
    def from_quality(cls, values: Mapping[str, float],
                     creator: str = "") -> "AnnotationAssertion":
        """Build an assertion whose text is rendered quality statements."""
        return cls(QualityAnnotation(values).to_text(), creator=creator)

    def to_dict(self) -> dict[str, Any]:
        return {
            "text": self.text,
            "date": self.date.isoformat(),
            "creator": self.creator,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AnnotationAssertion":
        return cls(
            data["text"],
            date=_dt.datetime.fromisoformat(data["date"]),
            creator=data.get("creator", ""),
        )

    def __repr__(self) -> str:
        preview = self.text if len(self.text) <= 40 else self.text[:37] + "..."
        return f"AnnotationAssertion({preview!r}, {self.date:%Y-%m-%d})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AnnotationAssertion):
            return NotImplemented
        return (self.text, self.date, self.creator) == (
            other.text, other.date, other.creator
        )
