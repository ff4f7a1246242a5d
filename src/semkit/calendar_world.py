"""Calendar world: org chart, date/time clauses, events and the pymr surface.

World files are JSON, their fields declared in ``_WORLD`` and ``_PERSON``::

    {"people": [{"id": str, "name": str, "manager": id-or-absent}, ...],
     "current_user": id, "now": ISO-8601 datetime, "events": []}

``events`` is not read.  The manager graph must be acyclic and ``now`` is fixed
per world (the bundled world anchors at Monday 2023-01-02 08:00).  Execution
never mutates a world; it returns the :class:`~semkit.outcomes.WorldDelta` of
events created.

Defaults: start time 09:00 when only a date is given, the anchor date when only
a time is given, and 30-minute duration.  An event takes at most one
``ends_at`` clause, and not with a duration.  ``FindTeamOf(p)`` (``find_team_of`` in
pymr) is everyone sharing p's manager, including p.  A ``date_by_mdy`` without a
year resolves to the next occurrence at or after the anchor date; ``NextDOW``
(``get_next_dow``) lands strictly after the anchor date, within 7 days.

One :class:`Event` record serves both dialects: Dataflow-Simple constraints
(:mod:`semkit.calflow`) fill it, and pymr's ``api.add_event`` checks a program's
``Event(...)`` into a new one; :func:`build_event` resolves either.  ``PYMR`` is
what a pymr program sees.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

from .errors import DataFormatError, MrExecError, shown
from .outcomes import CreatedEvent, WorldDelta
from .readonly import ReadOnlyList
from .resources import ANY, STRING, Schema, read_world


DEFAULT_DURATION_MINUTES = 30
DEFAULT_START_TIME = dt.time(9, 0)

WEEKDAYS = {
    "monday": 0, "tuesday": 1, "wednesday": 2, "thursday": 3,
    "friday": 4, "saturday": 5, "sunday": 6,
}


@dataclass(eq=False)
class CalPerson:
    id: str
    name: str
    manager: "CalPerson | None" = None

    def __repr__(self):
        return f"<person {self.name}>"


@dataclass(eq=False)
class CalendarWorld:
    people: list[CalPerson]
    current_user: CalPerson
    now: dt.datetime

    def find_person(self, name: str) -> CalPerson:
        wanted = name.lower()
        for person in self.people:
            if person.name.lower() == wanted:
                return person
        raise MrExecError("unknown-person", f"no person named {name!r}")

    def manager_of(self, person: CalPerson) -> CalPerson:
        if person.manager is None:
            raise MrExecError("unresolvable-constraint", f"{person.name} has no manager")
        return person.manager

    def team_of(self, person: CalPerson) -> list[CalPerson]:
        return [p for p in self.people if p.manager is person.manager]


_WORLD = Schema(("current_user", STRING), ("now", ANY))
_PERSON = Schema(("name", STRING), ("manager", STRING, None))


def load_world(path, data=None) -> CalendarWorld:
    """Load and check a calendar world from the file at ``path``, or from its bytes ``data``."""
    record, people_of = read_world(path, data)
    current_user, now = _WORLD.read(record, path)
    by_id: dict[str, CalPerson] = {}
    manager_ids = {}
    for pid, raw in people_of:
        name, manager_ids[pid] = _PERSON.read(raw, path, pid)
        if pid in by_id:
            raise DataFormatError(f"{path}: duplicate person id {pid!r}")
        by_id[pid] = CalPerson(id=pid, name=name)
    for pid, manager_id in manager_ids.items():
        if manager_id is not None and manager_id not in by_id:
            raise DataFormatError(f"{path}: unknown manager id {manager_id!r}")
        by_id[pid].manager = by_id.get(manager_id)
    people = list(by_id.values())
    for person in people:  # cycle check: walking up must terminate
        seen, node = set(), person
        while node is not None:
            if node.id in seen:
                raise DataFormatError(f"{path}: manager cycle through {node.id!r}")
            seen.add(node.id)
            node = node.manager
    if current_user not in by_id:
        raise DataFormatError(f"{path}: current_user {current_user!r} unknown")
    try:
        now = dt.datetime.fromisoformat(now)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad 'now' timestamp: {exc}") from exc
    return CalendarWorld(people=ReadOnlyList(people), current_user=by_id[current_user], now=now)


# --- clauses ---------------------------------------------------------------

@dataclass(frozen=True)
class DateClause:
    kind: str  # "next_dow" | "today" | "tomorrow" | "mdy"
    weekday: int | None = None
    month: int | None = None
    day: int | None = None
    year: int | None = None


@dataclass(frozen=True)
class TimeClause:
    hour: int
    minute: int = 0


class DateTimeClause:
    """Clause constructors shared by Dataflow-Simple and the Python MR API."""

    @staticmethod
    def get_next_dow(day_of_week: str) -> DateClause:
        weekday = WEEKDAYS.get(str(day_of_week).lower())
        if weekday is None:
            raise MrExecError("invalid-datetime", f"unknown day of week {day_of_week!r}")
        return DateClause(kind="next_dow", weekday=weekday)

    @staticmethod
    def date_by_mdy(month: int, day: int, year: int | None = None) -> DateClause:
        if not 1 <= int(month) <= 12 or not 1 <= int(day) <= 31:
            raise MrExecError("invalid-datetime", f"bad month/day {month}/{day}")
        return DateClause(kind="mdy", month=int(month), day=int(day),
                          year=None if year is None else int(year))

    @staticmethod
    def time_by_hm(hour: int, am_or_pm: str) -> TimeClause:
        hour = int(hour)
        if not 1 <= hour <= 12 or str(am_or_pm).lower() not in ("am", "pm"):
            raise MrExecError("invalid-datetime", f"bad time {hour} {am_or_pm}")
        hour24 = hour % 12 + (12 if str(am_or_pm).lower() == "pm" else 0)
        return TimeClause(hour=hour24)


class DateTimeValues:
    Today = DateClause(kind="today")
    Tomorrow = DateClause(kind="tomorrow")


def resolve_datetime(clauses, now: dt.datetime) -> tuple[dt.datetime, dt.datetime]:
    """Turn at most one date clause and one time clause into (start, end).

    Missing pieces fall back to the defaults; end is start plus the default
    duration (explicit durations/ends are applied by the caller).
    """
    dates = [c for c in clauses if isinstance(c, DateClause)]
    times = [c for c in clauses if isinstance(c, TimeClause)]
    if len(dates) > 1 or len(times) > 1:
        raise MrExecError("conflicting-clause", "more than one date or time clause")
    day = _resolve_date(dates[0], now) if dates else now.date()
    time = dt.time(times[0].hour, times[0].minute) if times else DEFAULT_START_TIME
    start = dt.datetime.combine(day, time)
    return start, start + dt.timedelta(minutes=DEFAULT_DURATION_MINUTES)


def _resolve_date(clause: DateClause, now: dt.datetime) -> dt.date:
    today = now.date()
    if clause.kind == "today":
        return today
    if clause.kind == "tomorrow":
        return today + dt.timedelta(days=1)
    if clause.kind == "next_dow":
        ahead = (clause.weekday - today.weekday() - 1) % 7 + 1
        return today + dt.timedelta(days=ahead)
    try:
        if clause.year is not None:
            return dt.date(clause.year, clause.month, clause.day)
        candidate = dt.date(today.year, clause.month, clause.day)
        if candidate < today:
            candidate = dt.date(today.year + 1, clause.month, clause.day)
        return candidate
    except (ValueError, OverflowError) as exc:  # e.g. day out of range, a year past C long
        raise MrExecError("invalid-datetime", str(exc)) from exc


# --- events -----------------------------------------------------------------

class Event:
    """One event request of either dialect (see the module docstring)."""

    def __init__(self, subject=None, starts_at=None, ends_at=None, location=None,
                 attendees=None, attendees_to_avoid=None, duration=None):
        self.subject, self.location, self.duration = subject, location, duration
        self.starts_at = [] if starts_at is None else list(starts_at)
        self.ends_at = [] if ends_at is None else list(ends_at)
        self.attendees = [] if attendees is None else list(attendees)
        self.attendees_to_avoid = [] if attendees_to_avoid is None else list(attendees_to_avoid)


def build_event(event: Event, world: CalendarWorld) -> CreatedEvent:
    start, end = resolve_datetime(event.starts_at, world.now)
    if event.duration is not None and event.ends_at:
        raise MrExecError("conflicting-clause", "both has_duration and ends_at given")
    if event.duration is not None:
        try:
            end = start + dt.timedelta(minutes=event.duration)
        except OverflowError:  # beyond timedelta's or datetime's range
            raise MrExecError("invalid-datetime", "event duration is out of range") from None
    elif event.ends_at:
        if len(event.ends_at) > 1:
            raise MrExecError("conflicting-clause", "more than one ends_at clause")
        clause = event.ends_at[0]
        if not isinstance(clause, TimeClause):
            raise MrExecError("conflicting-clause", "ends_at takes a time clause")
        end = dt.datetime.combine(start.date(), dt.time(clause.hour, clause.minute))
    if not start < end:
        raise MrExecError("invalid-datetime", "event must start before it ends")
    avoided = {p.id for p in event.attendees_to_avoid}
    attendees = {p.id for p in event.attendees} - avoided
    return CreatedEvent(
        start=start.isoformat(), end=end.isoformat(), subject=event.subject,
        location=event.location, attendees=frozenset(attendees), avoided=frozenset(avoided),
    )


# --- the pymr surface ---------------------------------------------------------

@dataclass(frozen=True, repr=False)
class CalendarPerson:
    """pymr-facing handle around one org-chart person; handles of one person are equal."""

    _person: CalPerson
    _world: CalendarWorld

    @property
    def name(self) -> str:
        return self._person.name

    def find_manager_of(self) -> "CalendarPerson":
        return CalendarPerson(self._world.manager_of(self._person), self._world)

    def find_team_of(self) -> list["CalendarPerson"]:
        return [CalendarPerson(p, self._world) for p in self._world.team_of(self._person)]

    def __repr__(self):
        return f"<person {self.name}>"


class CalendarApi:
    def __init__(self, world: CalendarWorld):
        self._world = world
        self._created = []

    def find_person(self, name: str) -> CalendarPerson:
        if not isinstance(name, str):
            raise MrExecError("type-mismatch", "find_person expects a name string")
        return CalendarPerson(self._world.find_person(name), self._world)

    def get_current_user(self) -> CalendarPerson:
        return CalendarPerson(self._world.current_user, self._world)

    def add_event(self, event: Event) -> None:
        if not isinstance(event, Event):
            raise MrExecError("type-mismatch", "add_event expects an Event")
        checked = Event(  # keyword arguments run in order: the first bad field is reported
            subject=_opt_str(event.subject, "subject"),
            location=_opt_str(event.location, "location"),
            starts_at=[_typed(c, _CLAUSES, "a date/time clause") for c in event.starts_at],
            ends_at=[_typed(c, _CLAUSES, "a date/time clause") for c in event.ends_at],
            duration=_minutes(event.duration),
            attendees=[_typed(p, CalendarPerson, "a person")._person for p in event.attendees],
            attendees_to_avoid=[_typed(p, CalendarPerson, "a person")._person
                                for p in event.attendees_to_avoid])
        self._created.append(build_event(checked, self._world))


def _opt_str(value, what):
    if value is not None and not isinstance(value, str):
        raise MrExecError("type-mismatch", f"{what} must be a string")
    return value


_CLAUSES = (DateClause, TimeClause)


def _typed(value, kinds, what: str):
    if isinstance(value, kinds):
        return value
    raise MrExecError("type-mismatch", f"{shown(value)} is not {what}")


def _minutes(value):
    if value is not None and (not isinstance(value, (int, float)) or isinstance(value, bool)
                              or not -math.inf < value < math.inf):  # NaN compares false
        raise MrExecError("type-mismatch", "duration must be minutes")
    return None if value is None else int(value)


# what a pymr program sees of a calendar world; the fields are laid out in semkit.pymr
PYMR = (
    lambda world: {"api": CalendarApi(world), "Event": Event,
                   "DateTimeClause": DateTimeClause, "DateTimeValues": DateTimeValues},
    frozenset({
        "api", "CalendarApi", "Person", "Event", "DateTimeClause", "DateTimeValues",
        "find_person", "get_current_user", "add_event",
        "name", "find_manager_of", "find_team_of",
        "subject", "starts_at", "ends_at", "location", "attendees",
        "attendees_to_avoid", "duration",
        "get_next_dow", "date_by_mdy", "time_by_hm", "Today", "Tomorrow",
    }),
    (CalendarApi, CalendarPerson, Event),
    (DateTimeClause, DateTimeValues),
    lambda value, binding: WorldDelta(created=tuple(binding["api"]._created)),
)
