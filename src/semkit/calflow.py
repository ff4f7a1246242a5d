"""Calendar environment: org chart, the Dataflow-Simple MR and the pymr surface.

World files are JSON, their fields declared in ``_WORLD`` and ``_PERSON``::

    {"people": [{"id": str, "name": str, "manager": id-or-absent}, ...],
     "current_user": id, "now": ISO-8601 datetime, "events": []}

``events`` is not read.  The manager graph must be acyclic and ``now`` is fixed
per world (the bundled world anchors at Monday 2023-01-02 08:00).  Execution
never mutates a world; it returns the :class:`~semkit.outcomes.WorldDelta` of
events created.

Dataflow-Simple registry::

    CreateEvent(constraint?)            FindManager(person)     NextDOW(DAYWORD)
    AND(constraint, ...)                FindTeamOf(person)      TODAY   TOMORROW
    at_location(words)                  CurrentUser()           date_by_mdy(m, d[, y])
    starts_at(clause, ...)  ends_at(clause)                     time_by_hm(h, am|pm)
    with_attendee(person)   avoid_attendee(person)
    has_subject(words)      has_duration(minutes)

Bare-word argument spans (e.g. ``Central Park``) end at the matching comma or
closing parenthesis.  Defaults: start time 09:00 when only a date is given,
the anchor date when only a time is given, and 30-minute duration.
``FindTeamOf(p)`` is everyone sharing p's manager, including p.  A
``date_by_mdy`` without a year resolves to the next occurrence at or after the
anchor date; ``NextDOW`` lands strictly after the anchor date, within 7 days.

One :class:`Event` record serves both dialects: Dataflow-Simple constraints fill
it, and pymr's ``api.add_event`` checks a program's ``Event(...)`` into a new one;
:func:`build_event` resolves either.  ``PYMR`` is what a pymr program sees.
"""

from __future__ import annotations

import datetime as dt
import math
import re
from dataclasses import dataclass

from .errors import MAX_DEPTH, TOO_DEEP, DataFormatError, MrExecError, MrParseError, shown
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


# --- Dataflow-Simple AST ----------------------------------------------------

@dataclass(frozen=True)
class Call:
    head: str
    args: tuple = ()


@dataclass(frozen=True)
class Word:
    text: str


@dataclass(frozen=True)
class NumberArg:
    value: int


DfsAst = Call

# head -> (min args, max args or None)
DFS_HEADS: dict[str, tuple[int, int | None]] = {
    "CreateEvent": (0, 1),
    "AND": (1, None),
    "at_location": (1, 1),
    "starts_at": (1, None),
    "ends_at": (1, 1),
    "with_attendee": (1, 1),
    "avoid_attendee": (1, 1),
    "has_subject": (1, 1),
    "has_duration": (1, 1),
    "FindManager": (1, 1),
    "FindTeamOf": (1, 1),
    "CurrentUser": (0, 0),
    "NextDOW": (1, 1),
    "date_by_mdy": (2, 3),
    "time_by_hm": (2, 2),
}

_HEAD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_INT_RE = re.compile(r"-?\d+$")


# a bare-word span, with the "(" that makes it a call head; a bracket or a comma
_TOKEN = re.compile(r"([^\s(),][^(),]*)(\()?|(\()|(\))|(,)")
# reader states: what the next token must be
_HEAD, _FIRST_ARG, _ARG, _NEXT_ARG, _END = range(5)


def parse_dfs(text: str) -> Call:
    """Parse a Dataflow-Simple program (a single call tree).

    One pass over the tokens with an explicit stack of open calls, so nesting
    is bounded by :data:`~semkit.errors.MAX_DEPTH`, not by recursion.
    """
    stack = []  # open calls: (head, position, arguments)
    state = _HEAD
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        token = " ".join(match.group(1).split()) if group <= 2 else match.group()
        if state == _END:
            raise MrParseError(f"trailing input {token!r}", position=match.start())
        if state == _NEXT_ARG and group == 5:
            state = _ARG
            continue
        if group == 4 and state in (_FIRST_ARG, _NEXT_ARG):
            head, pos, args = stack.pop()
            low, high = DFS_HEADS[head]
            if len(args) < low or (high is not None and len(args) > high):
                raise MrParseError(f"{head} takes {low}..{high if high is not None else 'n'} "
                                   f"arguments, got {len(args)}", position=pos)
            value = Call(head=head, args=tuple(args))
        elif state == _NEXT_ARG:
            raise MrParseError(f"expected ')', found {token!r}", position=match.start())
        elif group == 1 and state != _HEAD:
            value = NumberArg(int(token)) if _INT_RE.match(token) else Word(token)
        elif group > 2:
            expected = "expected 'span'" if state == _HEAD else "expected an argument"
            raise MrParseError(f"{expected}, found {token!r}", position=match.start())
        else:
            if not _HEAD_RE.match(token):
                raise MrParseError(f"bad call head {token!r}", position=match.start())
            if token not in DFS_HEADS:
                raise MrParseError(f"unknown head {token!r}", position=match.start())
            if group == 1:  # the root head, and no "(" follows
                if match.end() < len(text):
                    raise MrParseError(f"expected '(', found {text[match.end()]!r}",
                                       position=match.end())
                break  # end of input
            if len(stack) == MAX_DEPTH:
                raise MrParseError(TOO_DEEP, position=match.start(2))
            stack.append((token, match.start(), []))
            state = _FIRST_ARG
            continue
        if stack:
            stack[-1][2].append(value)
            state = _NEXT_ARG
        else:
            root, state = value, _END
    if state != _END:
        raise MrParseError("unexpected end of input", position=len(text))
    return root


def render_dfs(node) -> str:
    """Spaced rendering: ``Head( a , b )``; zero-arg calls print ``Head()``."""
    if isinstance(node, Word):
        return node.text
    if isinstance(node, NumberArg):
        return str(node.value)
    if not node.args:
        return f"{node.head}()"
    return f"{node.head}( " + " , ".join(render_dfs(a) for a in node.args) + " )"


def extract_operators(ast) -> frozenset[str]:
    """All call head names in a program."""
    found: set[str] = set()

    def walk(node):
        if isinstance(node, Call):
            found.add(node.head)
            for arg in node.args:
                walk(arg)

    walk(ast)
    return frozenset(found)


# --- execution --------------------------------------------------------------

class Event:
    """One event request of either dialect (see the module docstring)."""

    def __init__(self, subject=None, starts_at=None, ends_at=None, location=None,
                 attendees=None, attendees_to_avoid=None, duration=None):
        self.subject, self.location, self.duration = subject, location, duration
        self.starts_at = [] if starts_at is None else list(starts_at)
        self.ends_at = [] if ends_at is None else list(ends_at)
        self.attendees = [] if attendees is None else list(attendees)
        self.attendees_to_avoid = [] if attendees_to_avoid is None else list(attendees_to_avoid)


def _clause_value(node, world: CalendarWorld):
    if isinstance(node, Word):
        upper = node.text.upper()
        if upper == "TODAY":
            return DateTimeValues.Today
        if upper == "TOMORROW":
            return DateTimeValues.Tomorrow
        raise MrExecError("conflicting-clause", f"{node.text!r} is not a date/time clause")
    if isinstance(node, Call):
        if node.head == "NextDOW":
            if not isinstance(node.args[0], Word):
                raise MrExecError("invalid-datetime", "NextDOW needs a day word")
            return DateTimeClause.get_next_dow(node.args[0].text)
        if node.head == "date_by_mdy":
            nums = [a.value for a in node.args if isinstance(a, NumberArg)]
            if len(nums) != len(node.args):
                raise MrExecError("invalid-datetime", "date_by_mdy needs numbers")
            return DateTimeClause.date_by_mdy(*nums)
        if node.head == "time_by_hm":
            hour, ampm = node.args
            if not isinstance(hour, NumberArg) or not isinstance(ampm, Word):
                raise MrExecError("invalid-datetime", "time_by_hm needs a number and am/pm")
            return DateTimeClause.time_by_hm(hour.value, ampm.text)
    raise MrExecError("conflicting-clause", f"not a date/time clause: {node!r}")


def _resolve_people(node, world: CalendarWorld) -> list[CalPerson]:
    if isinstance(node, Word):
        return [world.find_person(node.text)]
    if isinstance(node, Call):
        if node.head == "CurrentUser":
            return [world.current_user]
        if node.head == "FindManager":
            targets = _resolve_people(node.args[0], world)
            return [world.manager_of(p) for p in targets]
        if node.head == "FindTeamOf":
            out = []
            for person in _resolve_people(node.args[0], world):
                out.extend(world.team_of(person))
            return out
    raise MrExecError("unresolvable-constraint", f"cannot resolve people from {node!r}")


def _apply_constraint(node, event: Event, world: CalendarWorld) -> None:
    if not isinstance(node, Call):
        raise MrExecError("unresolvable-constraint", f"bad constraint {node!r}")
    if node.head == "AND":
        for arg in node.args:
            _apply_constraint(arg, event, world)
    elif node.head == "at_location":
        event.location = node.args[0].text
    elif node.head == "has_subject":
        event.subject = node.args[0].text
    elif node.head == "starts_at":
        event.starts_at.extend(_clause_value(a, world) for a in node.args)
    elif node.head == "ends_at":
        event.ends_at.append(_clause_value(node.args[0], world))
    elif node.head == "has_duration":
        event.duration = node.args[0].value
    elif node.head == "with_attendee":
        event.attendees.extend(_resolve_people(node.args[0], world))
    elif node.head == "avoid_attendee":
        event.attendees_to_avoid.extend(_resolve_people(node.args[0], world))
    else:
        raise MrExecError("unresolvable-constraint", f"{node.head} is not a constraint")


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


def exec_dfs(ast: Call, world: CalendarWorld) -> WorldDelta:
    """Execute a program; returns the delta of created events."""
    if not isinstance(ast, Call) or ast.head != "CreateEvent":
        raise MrExecError("unresolvable-constraint", "program root must be CreateEvent")
    event = Event()
    if ast.args:
        _apply_constraint(ast.args[0], event, world)
    return WorldDelta(created=(build_event(event, world),))


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
