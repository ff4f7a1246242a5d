"""Dataflow-Simple, the calendar MR, over the world of :mod:`semkit.calendar_world`.

Registry::

    CreateEvent(constraint?)            FindManager(person)     NextDOW(DAYWORD)
    AND(constraint, ...)                FindTeamOf(person)      TODAY   TOMORROW
    at_location(words)                  CurrentUser()           date_by_mdy(m, d[, y])
    starts_at(clause, ...)  ends_at(clause)                     time_by_hm(h, am|pm)
    with_attendee(person)   avoid_attendee(person)
    has_subject(words)      has_duration(minutes)

Bare-word argument spans (e.g. ``Central Park``) end at the matching comma or
closing parenthesis.  A program is a plain tree: a call is a :class:`Call`, and
an argument span its text (a ``str``), or an ``int`` when it is a whole number.
A program's constraints fill one :class:`~semkit.calendar_world.Event`, which
:func:`~semkit.calendar_world.build_event` resolves with the world's defaults.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .calendar_world import (CalendarWorld, DateTimeClause, DateTimeValues, Event, Person,
                             build_event)
from .errors import MAX_DEPTH, TOO_DEEP, MrExecError, MrParseError
from .outcomes import WorldDelta


# --- Dataflow-Simple AST ----------------------------------------------------

class Call(NamedTuple):
    head: str
    args: tuple = ()  # each a Call, a word (str) or a number (int)


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
            value = int(token) if _INT_RE.match(token) else token
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
    if not isinstance(node, Call):
        return str(node)
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

def _clause_value(node, world: CalendarWorld):
    if isinstance(node, str):
        upper = node.upper()
        if upper == "TODAY":
            return DateTimeValues.Today
        if upper == "TOMORROW":
            return DateTimeValues.Tomorrow
        raise MrExecError("invalid-datetime", f"{render_dfs(node)!r} is not a date/time clause")
    if isinstance(node, Call):
        if node.head == "NextDOW":
            if not isinstance(node.args[0], str):
                raise MrExecError("invalid-datetime", "NextDOW needs a day word")
            return DateTimeClause.get_next_dow(node.args[0])
        if node.head == "date_by_mdy":
            if not all(isinstance(a, int) for a in node.args):
                raise MrExecError("invalid-datetime", "date_by_mdy needs numbers")
            return DateTimeClause.date_by_mdy(*node.args)
        if node.head == "time_by_hm":
            hour, ampm = node.args
            if not isinstance(hour, int) or not isinstance(ampm, str):
                raise MrExecError("invalid-datetime", "time_by_hm needs a number and am/pm")
            return DateTimeClause.time_by_hm(hour, ampm)
    raise MrExecError("type-mismatch", f"not a date/time clause: {render_dfs(node)}")


def _resolve_people(node, world: CalendarWorld) -> list[Person]:
    if isinstance(node, str):
        return [world.find_person(node)]
    if isinstance(node, Call):
        if node.head == "CurrentUser":
            return [world.current_user]
        if node.head == "FindManager":
            targets = _resolve_people(node.args[0], world)
            return [p.find_manager_of() for p in targets]
        if node.head == "FindTeamOf":
            out = []
            for person in _resolve_people(node.args[0], world):
                out.extend(person.find_team_of())
            return out
    raise MrExecError("type-mismatch", f"not people: {render_dfs(node)}")


# a constraint that sets one Event field, at most once: head -> (field, argument kind, what
# the argument must be)
_SINGLE = {"at_location": ("location", str, "words"), "has_subject": ("subject", str, "words"),
           "has_duration": ("duration", int, "minutes")}


def _apply_constraint(node, event: Event, world: CalendarWorld) -> None:
    if not isinstance(node, Call):
        raise MrExecError("unresolvable-constraint", f"bad constraint {render_dfs(node)!r}")
    if node.head == "AND":
        for arg in node.args:
            _apply_constraint(arg, event, world)
    elif node.head in _SINGLE:
        field, kind, what = _SINGLE[node.head]
        arg = node.args[0]
        if not isinstance(arg, kind):
            raise MrExecError("type-mismatch", f"{field} must be {what}")
        if getattr(event, field) is not None:
            raise MrExecError("conflicting-clause", f"more than one {node.head} clause")
        setattr(event, field, arg)
    elif node.head == "starts_at":
        event.starts_at.extend(_clause_value(a, world) for a in node.args)
    elif node.head == "ends_at":
        event.ends_at.append(_clause_value(node.args[0], world))
    elif node.head == "with_attendee":
        event.attendees.extend(_resolve_people(node.args[0], world))
    elif node.head == "avoid_attendee":
        event.attendees_to_avoid.extend(_resolve_people(node.args[0], world))
    else:
        raise MrExecError("unresolvable-constraint", f"{node.head} is not a constraint")


def exec_dfs(ast: Call, world: CalendarWorld) -> WorldDelta:
    """Execute a program; returns the delta of created events."""
    if not isinstance(ast, Call) or ast.head != "CreateEvent":
        raise MrExecError("unresolvable-constraint", "program root must be CreateEvent")
    event = Event()
    if ast.args:
        _apply_constraint(ast.args[0], event, world)
    return WorldDelta(created=(build_event(event, world),))
