"""Execution outcome values: denotations, world deltas, captured failures.

A :class:`Denotation` is what question-style programs evaluate to: either a
multiset of canonically-named entities or a multiset of numbers.  Action-style
programs (calendar requests) produce a :class:`WorldDelta`, the list of events
created by the program.  :class:`Outcome` wraps either of those, or a captured
execution failure, so batch evaluation never aborts on a bad program.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any

from .errors import MrExecError, MrParseError, shown

EntityRef = tuple[str, str]  # (entity kind, canonical lowercase name)


@dataclass(frozen=True)
class Denotation:
    kind: str  # "entities" | "number"
    entities: tuple[EntityRef, ...] = ()
    values: tuple[float, ...] = ()
    unit: str | None = None

    @staticmethod
    def of_entities(refs) -> "Denotation":
        return Denotation(kind="entities", entities=tuple(sorted(refs)))

    @staticmethod
    def of_numbers(values, unit: str | None = None) -> "Denotation":
        vals = tuple(sorted(float(v) for v in values))
        return Denotation(kind="number", values=vals, unit=unit)

    @staticmethod
    def of_number(value, unit: str | None = None) -> "Denotation":
        return Denotation.of_numbers([value], unit)

    def to_json(self) -> dict:
        if self.kind == "entities":
            return {"kind": "entities", "entities": [list(e) for e in self.entities]}
        values: Any = self.values[0] if len(self.values) == 1 else list(self.values)
        return {"kind": "number", "value": values, "unit": self.unit}


def _finite(number):
    """``number``, unless it is NaN, an infinity or an int past the largest float: no answer is."""
    if not -sys.float_info.max <= number <= sys.float_info.max:  # exact for ints of any size
        raise MrExecError("type-mismatch", f"cannot interpret {shown(number)} as an answer")
    return number


def denotation_of(value, entity_types, ref) -> Denotation:
    """A pymr answer as a denotation; ``ref`` names each ``entity_types`` instance in it."""
    if value is None:
        return Denotation.of_entities([])
    if isinstance(value, bool):
        return Denotation.of_number(1.0 if value else 0.0)
    if isinstance(value, (int, float)):
        return Denotation.of_number(_finite(value))
    if isinstance(value, entity_types):
        return Denotation.of_entities([ref(value)])
    if isinstance(value, (list, set, frozenset, tuple)):
        items = list(value)
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in items) and items:
            return Denotation.of_numbers([_finite(v) for v in items])
        refs = []
        for item in items:
            if not isinstance(item, entity_types):
                raise MrExecError("type-mismatch", f"cannot interpret {shown(item)} as an answer")
            refs.append(ref(item))
        return Denotation.of_entities(refs)
    raise MrExecError("type-mismatch", f"cannot interpret {shown(value)} as an answer")


@dataclass(frozen=True)
class CreatedEvent:
    """One concrete calendar event, fully resolved."""

    start: str  # ISO-8601
    end: str
    subject: str | None = None
    location: str | None = None
    attendees: frozenset[str] = frozenset()  # person ids
    avoided: frozenset[str] = frozenset()

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "start": self.start,
            "end": self.end,
            "location": self.location,
            "attendees": sorted(self.attendees),
            "avoided": sorted(self.avoided),
        }


@dataclass(frozen=True)
class WorldDelta:
    created: tuple[CreatedEvent, ...] = ()

    def to_json(self) -> dict:
        return {"kind": "delta", "created": [e.to_json() for e in self.created]}


@dataclass(frozen=True)
class Outcome:
    """Result of running one program: a value or a captured failure."""

    ok: bool
    value: Denotation | WorldDelta | None = None
    error: str | None = None  # stable failure code
    message: str | None = None

    @staticmethod
    def success(value) -> "Outcome":
        return Outcome(ok=True, value=value)

    @staticmethod
    def failure(code: str, message: str) -> "Outcome":
        return Outcome(ok=False, error=code, message=message)

    @staticmethod
    def from_exception(exc: Exception) -> "Outcome":
        if isinstance(exc, MrExecError):
            return Outcome.failure(exc.code, str(exc))
        if isinstance(exc, MrParseError):
            return Outcome.failure("parse-error", str(exc))
        return Outcome.failure("execution-error", f"{type(exc).__name__}: {exc}")

    def to_json(self) -> dict:
        if self.ok:
            return {"ok": True, "result": self.value.to_json()}
        return {"ok": False, "error": self.error, "message": self.message}
