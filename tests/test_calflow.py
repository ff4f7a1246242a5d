import datetime as dt
import json
import random

import pytest

from semkit.calendar_world import DateTimeClause, DateTimeValues, load_world, resolve_datetime
from semkit.calflow import Call, exec_dfs, extract_operators, parse_dfs, render_dfs
from semkit.errors import DataFormatError, MrExecError, MrParseError
from semkit.execute import run_program
from semkit.outcomes import WorldDelta
from semkit.resources import environment_path

SHOWCASE = "CreateEvent( AND( at_location( Central Park ) , starts_at( NextDOW( FRIDAY ) ) ) )"
ANCHOR = dt.datetime(2023, 1, 2, 8, 0)  # a Monday


def test_parse_showcase_tree():
    ast = parse_dfs(SHOWCASE)
    assert ast == Call("CreateEvent", (Call("AND", (
        Call("at_location", ("Central Park",)),
        Call("starts_at", (Call("NextDOW", ("FRIDAY",)),)),
    )),))


def test_parse_empty_constraint():
    assert parse_dfs("CreateEvent()") == Call("CreateEvent", ())


def test_syntax_error():
    with pytest.raises(MrParseError):
        parse_dfs("CreateEvent(AND(")


def test_unknown_head_and_arity():
    with pytest.raises(MrParseError, match="unknown head"):
        parse_dfs("MakeParty( now )")
    with pytest.raises(MrParseError, match="argument"):
        parse_dfs("CreateEvent( AND() )")


def test_render_round_trip():
    ast = parse_dfs(SHOWCASE)
    assert render_dfs(ast) == SHOWCASE
    assert parse_dfs(render_dfs(ast)) == ast
    assert render_dfs(parse_dfs("CreateEvent()")) == "CreateEvent()"


def test_bare_word_spans_close_at_comma_or_paren():
    ast = parse_dfs("CreateEvent( AND( at_location( Room 12 ) , has_subject( One on One ) ) )")
    and_node = ast.args[0]
    assert and_node.args[0].args[0] == "Room 12"
    assert and_node.args[1].args[0] == "One on One"


def test_resolve_next_dow():
    start, end = resolve_datetime([DateTimeClause.get_next_dow("Friday")], ANCHOR)
    assert start == dt.datetime(2023, 1, 6, 9, 0)
    assert end == start + dt.timedelta(minutes=30)


def test_resolve_time_only_uses_anchor_date():
    start, _ = resolve_datetime([DateTimeClause.time_by_hm(11, "am")], ANCHOR)
    assert start == dt.datetime(2023, 1, 2, 11, 0)


def test_resolve_mdy_plus_time():
    clauses = [DateTimeClause.date_by_mdy(11, 3), DateTimeClause.time_by_hm(11, "am")]
    start, _ = resolve_datetime(clauses, ANCHOR)
    assert start == dt.datetime(2023, 11, 3, 11, 0)


def test_mdy_year_inference_rolls_forward():
    start, _ = resolve_datetime([DateTimeClause.date_by_mdy(1, 1)], ANCHOR)
    assert start.date() == dt.date(2024, 1, 1)


def test_conflicting_and_invalid_clauses():
    with pytest.raises(MrExecError, match="conflicting-clause"):
        resolve_datetime([DateTimeValues.Today, DateTimeValues.Tomorrow], ANCHOR)
    with pytest.raises(MrExecError, match="invalid-datetime"):
        DateTimeClause.time_by_hm(13, "pm")
    with pytest.raises(MrExecError, match="invalid-datetime"):
        resolve_datetime([DateTimeClause.date_by_mdy(2, 31)], ANCHOR)


def test_next_dow_always_within_week():
    rng = random.Random(7)
    days = ["monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday"]
    for _ in range(10):
        anchor = dt.datetime(2023, 1, 1) + dt.timedelta(days=rng.randrange(365),
                                                        hours=rng.randrange(24))
        for index, day in enumerate(days):
            start, _ = resolve_datetime([DateTimeClause.get_next_dow(day)], anchor)
            assert start.weekday() == index
            assert anchor.date() < start.date() <= anchor.date() + dt.timedelta(days=7)


def test_exec_showcase(calendar_world):
    fields = type(calendar_world).__slots__
    before = {name: getattr(calendar_world, name) for name in fields}
    delta = exec_dfs(parse_dfs(SHOWCASE), calendar_world)
    assert isinstance(delta, WorldDelta) and len(delta.created) == 1
    event = delta.created[0]
    assert event.location == "Central Park"
    assert event.start == "2023-01-06T09:00:00"
    assert event.end == "2023-01-06T09:30:00"
    assert {name: getattr(calendar_world, name) for name in fields} == before  # world untouched


def test_exec_defaults(calendar_world):
    delta = exec_dfs(parse_dfs("CreateEvent()"), calendar_world)
    event = delta.created[0]
    assert event.start == "2023-01-02T09:00:00"
    assert event.end == "2023-01-02T09:30:00"
    assert event.subject is None and event.location is None
    assert event.attendees == frozenset()


def test_exec_is_pure(calendar_world):
    ast = parse_dfs(SHOWCASE)
    assert exec_dfs(ast, calendar_world) == exec_dfs(ast, calendar_world)


def test_find_manager_of_ceo_fails(calendar_world):
    outcome = run_program("dataflow-simple",
                          "CreateEvent( with_attendee( FindManager( olivia ) ) )",
                          "calendar", calendar_world)
    assert not outcome.ok and outcome.error == "unresolvable-constraint"


def test_unknown_person(calendar_world):
    outcome = run_program("dataflow-simple", "CreateEvent( with_attendee( zorp ) )",
                          "calendar", calendar_world)
    assert not outcome.ok and outcome.error == "unknown-person"


def test_team_is_subset_of_people_and_includes_self(calendar_world):
    for person in calendar_world.people:
        team = person.find_team_of()
        assert person in team
        assert set(team) <= set(calendar_world.people)
        assert team == [p for p in calendar_world.people if p in team]  # in world order


def test_the_people_without_a_manager_form_one_team():
    world = load_world("two-heads.json", json.dumps({
        "people": [{"id": "a", "name": "ann"}, {"id": "c", "name": "cy", "manager": "a"},
                   {"id": "b", "name": "bo"}],
        "current_user": "a", "now": "2023-01-02T08:00:00"}).encode())
    ann, cy, bo = world.people
    assert ann.find_team_of() == bo.find_team_of() == [ann, bo]
    assert cy.find_team_of() == [cy]
    delta = exec_dfs(parse_dfs("CreateEvent( with_attendee( FindTeamOf( bo ) ) )"), world)
    assert delta.created[0].attendees == frozenset({"a", "b"})


def test_avoid_attendee_removes_from_team(calendar_world):
    text = ("CreateEvent( AND( with_attendee( FindTeamOf( sarah ) ) , "
            "avoid_attendee( michael ) ) )")
    delta = exec_dfs(parse_dfs(text), calendar_world)
    event = delta.created[0]
    assert event.attendees == frozenset({"p1"})
    assert event.avoided == frozenset({"p2"})


def test_duration_and_ends_at(calendar_world):
    delta = exec_dfs(parse_dfs("CreateEvent( has_duration( 60 ) )"), calendar_world)
    assert delta.created[0].end == "2023-01-02T10:00:00"
    delta = exec_dfs(parse_dfs(
        "CreateEvent( AND( starts_at( TODAY ) , ends_at( time_by_hm( 5 , pm ) ) ) )"),
        calendar_world)
    assert delta.created[0].end == "2023-01-02T17:00:00"
    with pytest.raises(MrExecError, match="conflicting-clause"):
        exec_dfs(parse_dfs("CreateEvent( AND( has_duration( 30 ) , "
                           "ends_at( time_by_hm( 5 , pm ) ) ) )"), calendar_world)


@pytest.mark.parametrize("dialect, program", [
    ("dataflow-simple", "CreateEvent( AND( ends_at( time_by_hm( 5 , pm ) ) , "
                        "ends_at( time_by_hm( 6 , pm ) ) ) )"),
    ("pymr", "def answer():\n    api.add_event(Event(ends_at=["
             'DateTimeClause.time_by_hm(hour=5, am_or_pm="pm"), '
             'DateTimeClause.time_by_hm(hour=6, am_or_pm="pm")]))'),
])
def test_a_second_ends_at_is_a_conflicting_clause(calendar_world, dialect, program):
    outcome = run_program(dialect, program, "calendar", calendar_world)
    assert outcome.to_json() == {"ok": False, "error": "conflicting-clause",
                                 "message": "conflicting-clause: more than one ends_at clause"}


@pytest.mark.parametrize("minutes", ["100000000000", "1" + "0" * 399])
def test_duration_out_of_range_is_invalid_datetime(calendar_world, minutes):
    with pytest.raises(MrExecError) as info:
        exec_dfs(parse_dfs(f"CreateEvent( has_duration( {minutes} ) )"), calendar_world)
    assert str(info.value) == "invalid-datetime: event duration is out of range"


@pytest.mark.parametrize("program, message", [
    ("CreateEvent( has_duration( long ) )", "type-mismatch: duration must be minutes"),
    ("CreateEvent( has_duration( CurrentUser() ) )", "type-mismatch: duration must be minutes"),
    ("CreateEvent( at_location( NextDOW( FRIDAY ) ) )", "type-mismatch: location must be words"),
    ("CreateEvent( at_location( 5 ) )", "type-mismatch: location must be words"),
    ("CreateEvent( has_subject( CurrentUser() ) )", "type-mismatch: subject must be words"),
    ("CreateEvent( AND( has_duration( 30 ) , has_duration( 40 ) ) )",
     "conflicting-clause: more than one has_duration clause"),
    ("CreateEvent( AND( at_location( Central Park ) , at_location( Central Park ) ) )",
     "conflicting-clause: more than one at_location clause"),
    ("CreateEvent( AND( has_subject( lunch ) , AND( has_subject( dinner ) ) ) )",
     "conflicting-clause: more than one has_subject clause"),
])
def test_single_valued_constraint_checks_its_argument_and_appears_once(calendar_world,
                                                                       program, message):
    outcome = run_program("dataflow-simple", program, "calendar", calendar_world)
    assert not outcome.ok and outcome.message == message


def test_extract_operators():
    assert extract_operators(parse_dfs(SHOWCASE)) == frozenset(
        {"CreateEvent", "AND", "at_location", "starts_at", "NextDOW"})
    assert extract_operators(parse_dfs("CreateEvent()")) == frozenset({"CreateEvent"})


def test_extract_operators_golden(smcalflow):
    ast = parse_dfs(smcalflow["sm-11"].programs["dataflow-simple"])
    assert extract_operators(ast) == frozenset(
        {"CreateEvent", "AND", "with_attendee", "FindManager", "CurrentUser",
         "starts_at", "NextDOW", "time_by_hm", "has_duration"})


def _world(**changes):
    world = json.loads(environment_path("calendar").read_text(encoding="utf-8"))
    world.update(changes)
    return world


@pytest.mark.parametrize("content, message", [
    ([1], "expected a JSON object at the top level"),
    ({"current_user": "p1", "now": "2023-01-02T08:00"}, "missing field 'people'"),
    (_world(people="p1"), "'people' must be a list"),
    (_world(people=[["p1", "sarah"]]), "people[0]: expected a JSON object"),
    (_world(people=[{"name": "sarah"}]), "people[0]: missing field 'id'"),
    (_world(now=20230102), "bad 'now' timestamp: "),
    (_world(people=[{"id": "p1", "name": 7}]), "p1: field 'name' is not a string: 7"),
    (_world(people=[{"id": "p1"}]), "p1: missing field 'name'"),
    (_world(people=[{"id": "p1", "name": "sarah", "manager": ["x"]}]),
     "p1: field 'manager' is not a string: ['x']"),
    (_world(people=[{"id": ["x"], "name": "sarah"}]),
     "people[0]: field 'id' is not a string: ['x']"),
    (_world(current_user=["p1"]), "field 'current_user' is not a string: ['p1']"),
    (_world(current_user=None), "field 'current_user' is not a string: None"),
])
def test_world_of_the_wrong_shape_is_a_data_format_error(tmp_path, content, message):
    path = tmp_path / "world.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    with pytest.raises(DataFormatError) as info:
        load_world(path)
    assert str(info.value).startswith(f"{path}: {message}")
