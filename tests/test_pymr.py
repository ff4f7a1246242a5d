import ast as pyast
import random
import re

import pytest

from semkit.errors import MAX_DEPTH, TOO_DEEP, MrParseError, UnsupportedConstructError, shown
from semkit.execute import run_program
from semkit.funql import exec_funql, parse_funql
from semkit.geo import State
from semkit.pymr import (BUILTIN_NAMES, _surface, binding_names, exec_pymr, extract_operators,
                         parse_pymr)

LARGEST_STATE_ELEVATION = ("def answer():\n"
              "    largest_state = max(geo_model.states, key=lambda x: x.size)\n"
              "    return largest_state.high_point.elevation")

TEAM_MEETING_CAL = ("def answer():\n"
              "    team = api.get_current_user().find_team_of()\n"
              '    api.add_event(Event(subject="Meeting with Team", '
              "starts_at=[DateTimeClause.date_by_mdy(month=11, day=3), "
              'DateTimeClause.time_by_hm(hour=11, am_or_pm="am")], attendees=team))')

MATCHING_START_DATE_SOCIAL = (
    "def answer():\n"
    '    alice = api.find_person_by_id("en.person.alice")\n'
    "    students_with_same_start_date = [person for person in api.people "
    "if person.education and any(e.start_date == alice_employment.end_date "
    "for e in person.education for alice_employment in alice.employment)]\n"
    "    return students_with_same_start_date")


def test_parse_two_statement_program():
    program = parse_pymr(LARGEST_STATE_ELEVATION)
    assert len(program.func.body) == 2
    assert isinstance(program.func.body[0], pyast.Assign)
    assert isinstance(program.func.body[1], pyast.Return)


def test_parse_minimal():
    assert parse_pymr("def answer(): return 1").func.name == "answer"


def test_return_annotation_is_tolerated():
    parse_pymr("def answer() -> List[State]:\n    return []")


@pytest.mark.parametrize("source,construct", [
    ("def answer():\n    while True:\n        return 1", "while"),
    ("import os\ndef answer(): return 1", "import"),
    ("def answer():\n    return geo_model.states[0:2]", "slice"),
    ("def answer():\n    def inner(): return 1\n    return inner()", "nested function"),
    ("def answer():\n    geo_model.states = []\n    return 1", "attribute assignment"),
    ("def answer():\n    x = 1\n    x += 1\n    return x", "augmented assignment"),
    ("def answer():\n    return {1: 2}", "dict display"),
    ("def answer():\n    return f\"{1}\"", "f-string"),
    ("def answer():\n    return 1 if True else 2", "conditional expression"),
    ("def answer():\n    return (p for p in geo_model.states)", "generator expression"),
    ("def answer():\n    return 1 is None", "operator Is"),
    ("def answer():\n    return 1 is not None", "operator IsNot"),
    ("def answer():\n    return 1 < 2 < 3", "chained comparison"),
    ("@geo_model.states.clear\ndef answer():\n    return 1", "decorator"),
])
def test_unsupported_constructs_are_named(source, construct):
    with pytest.raises(UnsupportedConstructError) as err:
        parse_pymr(source)
    assert err.value.construct == construct


_AFTER_LINE_2 = "def answer():\n    x = 1\n"


@pytest.mark.parametrize("body,construct,line", [
    ("    while x:\n        return 1", "while", 3),
    ("    with x:\n        return 1", "with", 3),
    ("    try:\n        x = 2\n    except E:\n        x = 3", "try", 3),
    ("    raise x", "raise", 3),
    ("    import os", "import", 3),
    ("    from os import path", "import", 3),
    ("    class C:\n        y = 1", "class", 3),
    ("    def inner(): return 1", "nested function", 3),
    ("    async def inner(): return 1", "async function", 3),
    ("    x += 1", "augmented assignment", 3),
    ("    y: int = 1", "annotated assignment", 3),
    ("    del x", "del", 3),
    ("    global x", "global", 3),
    ("    nonlocal x", "nonlocal", 3),
    ("    assert x", "assert", 3),
    ("    match x:\n        case 1:\n            return 1", "match", 3),
    ("    for y in [1]:\n        break", "break", 4),
    ("    for y in [1]:\n        continue", "continue", 4),
    ("    pass", "pass", 3),
    ("    async for y in x:\n        x = y", "asyncfor", 3),
    ("    if x:\n        x = 2\n    else:\n        while x:\n            x = 1", "while", 6),
    ("    return {1: 2}", "dict display", 3),
    ("    return {1}", "set display", 3),
    ("    return {k: 1 for k in [1]}", "dict comprehension", 3),
    ("    return {k for k in [1]}", "set comprehension", 3),
    ("    return [(await x)]", "await", 3),
    ("    return [(yield x)]", "yield", 3),
    ("    return [(yield from x)]", "yield", 3),
    ('    return f"{x}"', "f-string", 3),
    ("    return [*x]", "starred expression", 3),
    ("    return [(y := 1)]", "walrus assignment", 3),
    ("    return 1 if x else 2", "conditional expression", 3),
    ("    return geo_model.states[0:2]", "slice", 3),
    ("    return (1, 2)", "tuple display", 3),
    ("    a = b = 1", "chained assignment", 3),
    ("    geo_model.states = []", "attribute assignment", 3),
    ("    a, b = 1, 2", "destructuring assignment", 3),
    ("    for y in [1]:\n        x = y\n    else:\n        x = 2", "for-else", 3),
    ("    for a, b in [1]:\n        x = a", "destructuring loop target", 3),
    ("    return max(p for p in x) + len(p for p in x)", "generator expression", 3),
    ("    return max((p for p in x), 1)", "generator expression", 3),
    ("    return (p for p in x)", "generator expression", 3),
    ("    return max(**x)", "**kwargs", 3),
    ("    return (lambda y: y)", "lambda", 3),
    ("    return max(x, key=lambda y, z: y)", "lambda", 3),
    ("    return 1 < x < 3", "chained comparison", 3),
    ("    return 1 is x", "operator Is", 3),
    ("    return 1 is not x", "operator IsNot", 3),
    ("    return ~x", "unary operator", 3),
    ("    return +x", "unary operator", 3),
    ("    return x % 2", "operator Mod", 3),
    ("    return x ** 2", "operator Pow", 3),
    ("    return x // 2", "operator FloorDiv", 3),
    ("    return [y async for y in x]", "async comprehension", None),
    ("    return [1 for (a, b) in x]", "destructuring comprehension target", None),
    ("    return [\n        1\n        for y in x\n        if y == {}\n    ]", "dict display", 6),
])
def test_unsupported_construct_names_and_lines(body, construct, line):
    with pytest.raises(UnsupportedConstructError) as err:
        parse_pymr(_AFTER_LINE_2 + body)
    assert (err.value.construct, err.value.line) == (construct, line)


def test_decorators_are_rejected_at_their_line():
    with pytest.raises(UnsupportedConstructError) as err:
        parse_pymr("\n@first\n@second\ndef answer():\n    return 1")
    assert (err.value.construct, err.value.line) == ("decorator", 2)


def test_syntax_error_has_line():
    with pytest.raises(MrParseError, match="line"):
        parse_pymr("def answer(:\n    return 1")


def test_answer_signature_enforced():
    with pytest.raises(MrParseError, match="named 'answer'"):
        parse_pymr("def main(): return 1")
    with pytest.raises(MrParseError, match="no parameters"):
        parse_pymr("def answer(x): return x")


def test_exec_matches_funql_on_showcase(geo_model):
    value = exec_pymr(parse_pymr(LARGEST_STATE_ELEVATION), "geo", geo_model)
    gold = exec_funql(parse_funql(
        "answer(elevation_1(highest(place(loc_2(largest(state(all)))))))"), geo_model)
    assert value.values == gold.values == (2667.0,)


def test_exec_calendar_team_meeting(calendar_world):
    event = exec_pymr(parse_pymr(TEAM_MEETING_CAL), "calendar", calendar_world).created[0]
    assert event.start == "2023-11-03T11:00:00"
    assert event.attendees == frozenset({"p1", "p2"})  # the current user's team


def test_exec_social_matching_start_dates(social_db):
    value = exec_pymr(parse_pymr(MATCHING_START_DATE_SOCIAL), "social", social_db)
    assert value.entities == (("person", "en.person.henry"),)


def test_unknown_name_is_captured_not_host(geo_model):
    outcome = run_program("pymr", "def answer():\n    return open('/etc/passwd')",
                          "geo", geo_model)
    assert not outcome.ok and outcome.error == "name-not-found"


@pytest.mark.parametrize("expr", [
    "geo_model.__class__",
    "geo_model.states.__len__",
    "(1).__class__",
])
def test_dunder_access_is_blocked(geo_model, expr):
    outcome = run_program("pymr", f"def answer():\n    return {expr}", "geo", geo_model)
    assert not outcome.ok and outcome.error == "attribute-not-found"


# a person's id, manager and team and the database's index are out of a program's reach
@pytest.mark.parametrize("environment, expr, message", [
    ("calendar", "api.get_current_user()._manager", "no attribute '_manager'"),
    ("calendar", "api.get_current_user().id", "'Person' object has no attribute 'id'"),
    ("social", "api._by_id", "no attribute '_by_id'"),
])
def test_private_fields_are_out_of_reach(request, environment, expr, message):
    world = request.getfixturevalue(
        {"social": "social_db", "calendar": "calendar_world"}[environment])
    outcome = run_program("pymr", f"def answer():\n    return {expr}", environment, world)
    assert outcome.to_json() == {"ok": False, "error": "attribute-not-found",
                                 "message": f"attribute-not-found: {message}"}


def test_a_program_may_change_the_team_it_was_given(calendar_world):
    program = ("def answer():\n"
               "    me = api.get_current_user()\n"
               "    team = me.find_team_of()\n"
               "    team.remove(me)\n"
               "    api.add_event(Event(attendees=team))")
    outcome = run_program("pymr", program, "calendar", calendar_world)
    assert outcome.ok and outcome.value.created[0].attendees == frozenset({"p2"})
    team = calendar_world.current_user.find_team_of()
    assert [p.name for p in team] == ["sarah", "michael"]  # the world's team is unchanged


def test_unknown_names_never_reach_host(geo_model):
    # names that would be dangerous or merely common builtins: all unresolved
    for name in ("eval", "exec", "__import__", "globals", "print", "range"):
        outcome = run_program("pymr", f"def answer():\n    return {name}", "geo", geo_model)
        assert not outcome.ok and outcome.error == "name-not-found", name


def test_string_methods_rejected_at_runtime(geo_model):
    outcome = run_program("pymr", 'def answer():\n    return "abc".upper()', "geo", geo_model)
    assert not outcome.ok and outcome.error == "attribute-not-found"


def test_empty_max_with_key_is_captured(geo_model):
    outcome = run_program("pymr", "def answer():\n    return max([], key=lambda x: x)",
                          "geo", geo_model)
    assert not outcome.ok and outcome.error == "empty-input"


def test_removing_a_missing_item_is_item_not_found(geo_model):
    outcome = run_program("pymr", "def answer():\n    x = [1]\n    x.remove(2)\n    return x",
                          "geo", geo_model)
    assert outcome.to_json() == {"ok": False, "error": "item-not-found",
                                 "message": "item-not-found: list.remove(x): x not in list"}


# A clause argument that is not a finite number is a bad date or time, whatever its type.
@pytest.mark.parametrize("clause,message", [
    ('date_by_mdy("may", 1)', "month must be a finite number, not 'may'"),
    ('date_by_mdy(1, "first")', "day must be a finite number, not 'first'"),
    ('date_by_mdy("5", 1)', "month must be a finite number, not '5'"),
    ("date_by_mdy(1e400, 1)", "month must be a finite number, not inf"),
    ("date_by_mdy(1e309 - 1e309, 1)", "month must be a finite number, not nan"),
    ("date_by_mdy(True, 1)", "month must be a finite number, not True"),
    ("date_by_mdy(1, 1, -1e400)", "year must be a finite number, not -inf"),
    ('date_by_mdy(1, 1, "2024")', "year must be a finite number, not '2024'"),
    ('time_by_hm("five", "pm")', "hour must be a finite number, not 'five'"),
    ('time_by_hm(None, "pm")', "hour must be a finite number, not None"),
    ('time_by_hm([5], "pm")', "hour must be a finite number, not [5]"),
])
def test_non_numeric_clause_arguments_are_invalid_datetime(calendar_world, clause, message):
    program = f"def answer():\n    api.add_event(Event(starts_at=[DateTimeClause.{clause}]))"
    outcome = run_program("pymr", program, "calendar", calendar_world)
    assert outcome.to_json() == {"ok": False, "error": "invalid-datetime",
                                 "message": f"invalid-datetime: {message}"}


def test_a_fractional_hour_or_month_is_cut_to_a_whole_one(calendar_world):
    def start(clause):
        program = f"def answer():\n    api.add_event(Event(starts_at=[DateTimeClause.{clause}]))"
        outcome = run_program("pymr", program, "calendar", calendar_world)
        return outcome.value.created[0].start
    assert start('time_by_hm(5.5, "pm")') == start('time_by_hm(5, "pm")') == "2023-01-02T17:00:00"
    assert start("date_by_mdy(2.9, 3.5)") == start("date_by_mdy(2, 3)") == "2023-02-03T09:00:00"


def test_index_out_of_range_is_captured(geo_model):
    outcome = run_program("pymr", "def answer():\n    return geo_model.states[99]",
                          "geo", geo_model)
    assert not outcome.ok and outcome.error == "index-out-of-range"


@pytest.mark.parametrize("signs", [1000, 5000])
def test_deep_nesting_is_a_parse_error(geo_model, signs):
    # 1000 signs pass Python's parser and hit the checked pass's budget;
    # 5000 exhaust the recursion of Python's own parser
    outcome = run_program("pymr", "def answer():\n    return " + "-" * signs + "1",
                          "geo", geo_model)
    assert not outcome.ok and outcome.error == "parse-error"
    assert outcome.message.startswith(TOO_DEEP)


def test_nesting_at_the_budget_runs(geo_model):
    # the return statement is one level, each sign one more, the literal none
    ok = "def answer():\n    return " + "-" * (MAX_DEPTH - 1) + "1"
    assert exec_pymr(parse_pymr(ok), "geo", geo_model).values == (-1.0,)
    with pytest.raises(MrParseError, match=TOO_DEEP):
        parse_pymr(ok.replace("return ", "return -"))
    clauses = " ".join(f"for x{i} in [1]" for i in range(MAX_DEPTH))
    with pytest.raises(MrParseError, match=TOO_DEEP):
        parse_pymr(f"def answer():\n    return [1 {clauses}]")


def test_determinism(geo_model):
    program = "def answer():\n    return [s.name for s in geo_model.states]"
    assert (run_program("pymr", program, "geo", geo_model)
            == run_program("pymr", program, "geo", geo_model))


def test_comprehension_equals_explicit_loop(geo_model):
    comp = parse_pymr(
        "def answer():\n    return [c for c in geo_model.cities if c.is_major]")
    loop = parse_pymr(
        "def answer():\n"
        "    out = []\n"
        "    for c in geo_model.cities:\n"
        "        if c.is_major:\n"
        "            out.append(c)\n"
        "    return out")
    assert exec_pymr(comp, "geo", geo_model) == exec_pymr(loop, "geo", geo_model)


def test_entity_equality_is_identity(geo_model):
    program = parse_pymr(
        "def answer():\n"
        '    texas = geo_model.find_state("texas")\n'
        "    return [s for s in geo_model.states if s == texas]")
    assert exec_pymr(program, "geo", geo_model).entities == (("state", "texas"),)


def test_extract_operators_showcase():
    assert extract_operators(parse_pymr(LARGEST_STATE_ELEVATION)) == \
        frozenset({"states", "size", "high_point", "elevation"})


def test_extract_operators_literal_program():
    assert extract_operators(parse_pymr("def answer(): return 1")) == frozenset()


def test_extract_operators_includes_constructors_and_enum_members():
    ops = extract_operators(parse_pymr(
        "def answer():\n"
        "    api.add_event(Event(starts_at=[DateTimeValues.Tomorrow]))"))
    assert {"add_event", "Event", "Tomorrow"} <= ops
    assert "api" not in ops and "DateTimeValues" not in ops


# The surface is read off the classes a program reaches, so a public member added to one
# joins it, and the check that the full DD declares every name then fails.
def test_a_public_member_added_to_an_exposed_class_joins_the_surface(monkeypatch, geo_model):
    before = binding_names("geo", geo_model)
    assert "population_share" not in before
    monkeypatch.setattr(State, "population_share", lambda self: 0.0, raising=False)
    monkeypatch.setattr(State, "_cached_share", 0.0, raising=False)
    assert binding_names("geo", geo_model) == before | {"population_share"}


# An instance attribute would reach programs without being on its class; slots rule it out.
@pytest.mark.parametrize("environment", ["geo", "social", "calendar"])
def test_what_an_exposed_instance_holds_is_declared_on_its_class(environment):
    for cls in _surface(environment)[1]:
        assert "__dict__" not in dir(cls), cls.__name__


def walk_extract_operators(program):
    """extract_operators as one ast.walk over the function, the rule before the checked pass."""
    found = set()
    for node in pyast.walk(program.func):
        if isinstance(node, pyast.Attribute):
            if not node.attr.startswith("_"):
                found.add(node.attr)
        elif (isinstance(node, pyast.Call) and isinstance(node.func, pyast.Name)
              and node.func.id not in BUILTIN_NAMES):
            found.add(node.func.id)
    return frozenset(found)


def bundled_pymr_programs(*datasets):
    return [ex.programs["pymr"] for dataset in datasets
            for ex in dataset.examples if "pymr" in ex.programs]


def test_checked_pass_operators_match_walk_on_every_bundled_program(geoquery, overnight,
                                                                    smcalflow):
    programs = bundled_pymr_programs(geoquery, overnight, smcalflow)
    assert len(programs) == 90
    for text in programs:
        program = parse_pymr(text)
        assert program.operators == walk_extract_operators(program), text
        assert extract_operators(program) is program.operators


@pytest.mark.parametrize("annotation,body,expected", [
    # the return annotation is tolerated unchecked and walked with the same rule
    ("-> List[State]", "return geo_model.states", {"states"}),
    ("-> geo_model.Foo", "return geo_model.states", {"states", "Foo"}),
    ("-> geo_model._Hidden", "return 1", set()),
    ("-> make(geo_model.Foo)", "return 1", {"make", "Foo"}),
    ("-> max(List[State])", "return 1", set()),
    ("", "return geo_model._states", set()),
    ("", "return len(geo_model.states) + abs(-1)", {"states"}),
    ("", "return sorted([s.name for s in geo_model.states if helper(s)])",
     {"states", "name", "helper"}),
    ("", "return max(geo_model.states, key=lambda s: s.area)", {"states", "area"}),
    ("", "return [x for x in geo_model.states][0].capital.name", {"states", "capital", "name"}),
])
def test_checked_pass_operators_match_walk_on_edge_programs(annotation, body, expected):
    program = parse_pymr(f"def answer() {annotation}:\n    {body}")
    assert program.operators == walk_extract_operators(program) == frozenset(expected)


_MUTANT_TOKEN = re.compile(r"\w+|[^\w\s]")


def token_mutants(text, rng, count):
    """Seeded mutants of ``text``: one token dropped, or two tokens swapped."""
    spans = [m.span() for m in _MUTANT_TOKEN.finditer(text)]
    for _ in range(count):
        if rng.random() < 0.5:
            start, end = spans[rng.randrange(len(spans))]
            yield text[:start] + text[end:]
        else:
            first, second = sorted(rng.sample(range(len(spans)), 2))
            (a, b), (c, d) = spans[first], spans[second]
            yield text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]


def test_checked_pass_operators_match_walk_on_token_mutants(geoquery, overnight, smcalflow):
    rng = random.Random(5)
    accepted = changed = 0
    for text in bundled_pymr_programs(geoquery, overnight, smcalflow):
        original = parse_pymr(text).operators
        for mutant in token_mutants(text, rng, 12):
            try:
                program = parse_pymr(mutant)
            except MrParseError:
                continue
            accepted += 1
            changed += program.operators != original
            assert program.operators == walk_extract_operators(program), mutant
    assert accepted >= 150 and changed >= 50, (accepted, changed)


def test_extract_operators_golden_bundle(smcalflow):
    program = parse_pymr(smcalflow["sm-05"].programs["pymr"])
    assert extract_operators(program) == frozenset(
        {"find_person", "find_team_of", "remove", "add_event", "Event", "get_next_dow"})


@pytest.mark.parametrize("expr,expected", [
    ("sum([1, 2, 3]) + max([4, 5])", 11.0),
    ("len([x for x in [1, 2, 3] if x > 1])", 2.0),
    ("sorted([3, 1, 2])[0]", 1.0),
    ("abs(0 - 7)", 7.0),
    ("min([2.5, 2.0]) * 4", 8.0),
    ("sum([a + 1 for a in [1, 2] for b in [0]])", 5.0),
    ("max([1, 2, 3], key=lambda v: 0 - v)", 1.0),
    ("len(set([1, 1, 2]))", 2.0),
    ("sum([v for v in [1, 2, 3] if v in [2, 3]])", 5.0),
])
def test_pure_computation_matches_host_semantics(geo_model, expr, expected):
    outcome = run_program("pymr", f"def answer():\n    return {expr}", "geo", geo_model)
    assert outcome.ok, outcome.message
    assert outcome.value.values == (expected,)


def test_boolean_conditions_follow_truthiness(geo_model):
    program = parse_pymr(
        "def answer():\n"
        "    items = []\n"
        "    for s in geo_model.states:\n"
        "        if s.rivers and s.population > 5000000:\n"
        "            items.append(s)\n"
        "    return items")
    names = {e[1] for e in exec_pymr(program, "geo", geo_model).entities}
    assert names == {"texas", "colorado", "missouri"}


def _entities(*refs):
    return {"ok": True, "result": {"kind": "entities", "entities": [list(r) for r in refs]}}


def _number(value):
    return {"ok": True, "result": {"kind": "number", "value": value, "unit": None}}


_MISMATCH_1 = {"ok": False, "error": "type-mismatch",
               "message": "type-mismatch: cannot interpret 1 as an answer"}
_NORMALIZATION = {
    "geo": {
        "one": ("geo_model.states[0]", _entities(("state", "texas"))),
        "pair": ("[geo_model.states[0], geo_model.states[1]]",
                 _entities(("state", "new mexico"), ("state", "texas"))),
        "mixed": ("[geo_model.states[0], 1]", _MISMATCH_1),
        "string": ('"texas"', {"ok": False, "error": "type-mismatch",
                               "message": "type-mismatch: cannot interpret 'texas' as an answer"}),
    },
    "social": {
        "one": ("api.people[0]", _entities(("person", "en.person.alice"))),
        "pair": ("[api.people[1], api.people[0]]",
                 _entities(("person", "en.person.alice"), ("person", "en.person.bob"))),
        "mixed": ("[api.people[0], 1]", _MISMATCH_1),
        "string": ('"texas"', _entities(("value", "texas"))),
    },
}


@pytest.mark.parametrize("environment", ["geo", "social"])
@pytest.mark.parametrize("case", [
    ("None", _entities()),
    ("True", _number(1.0)),
    ("False", _number(0.0)),
    ("7", _number(7.0)),
    ("[3, 1.5]", _number([1.5, 3.0])),
    ("[]", _entities()),
    "one", "pair", "mixed", "string",
])
def test_answer_normalization(request, environment, case):
    world = request.getfixturevalue({"geo": "geo_model", "social": "social_db"}[environment])
    expr, expected = _NORMALIZATION[environment][case] if isinstance(case, str) else case
    outcome = run_program("pymr", f"def answer():\n    return {expr}", environment, world)
    assert outcome.to_json() == expected


# add_event checks an event's fields in a fixed order (subject, location, starts,
# ends, duration, attendees, avoided) and reports the first bad one.
@pytest.mark.parametrize("call,message", [
    ("api.add_event(1)", "add_event expects an Event"),
    ("api.add_event(Event(subject=1))", "subject must be a string"),
    ("api.add_event(Event(location=1))", "location must be a string"),
    ('api.add_event(Event(duration="x"))', "duration must be minutes"),
    ("api.add_event(Event(duration=True))", "duration must be minutes"),
    ("api.add_event(Event(duration=1e309))", "duration must be minutes"),
    ("api.add_event(Event(duration=1e309 - 1e309))", "duration must be minutes"),
    ("api.add_event(Event(starts_at=[1]))", "1 is not a date/time clause"),
    ('api.add_event(Event(ends_at=["noon"]))', "'noon' is not a date/time clause"),
    ('api.add_event(Event(attendees=["bob"]))', "'bob' is not a person"),
    ("api.add_event(Event(attendees_to_avoid=[2]))", "2 is not a person"),
    ("api.find_person(1)", "find_person expects a name string"),
    ('api.add_event(Event(subject=1, attendees=["bob"]))', "subject must be a string"),
])
def test_calendar_api_type_checks(calendar_world, call, message):
    outcome = run_program("pymr", f"def answer():\n    {call}", "calendar", calendar_world)
    assert outcome.to_json() == {"ok": False, "error": "type-mismatch",
                                 "message": f"type-mismatch: {message}"}


# A duration or a year past what a date can hold is a bad event time, not a crash.
@pytest.mark.parametrize("call,message", [
    ("api.add_event(Event(duration=100000000000))", "event duration is out of range"),
    (f"api.add_event(Event(duration=1{'0' * 399}))", "event duration is out of range"),
    (f"api.add_event(Event(duration=-1{'0' * 399}))", "event duration is out of range"),
    ("api.add_event(Event(starts_at=[DateTimeClause.date_by_mdy(1, 1, 100000000000000000000)]))",
     "Python int too large to convert to C long"),
])
def test_out_of_range_event_times_are_invalid_datetime(calendar_world, call, message):
    outcome = run_program("pymr", f"def answer():\n    {call}", "calendar", calendar_world)
    assert outcome.to_json() == {"ok": False, "error": "invalid-datetime",
                                 "message": f"invalid-datetime: {message}"}


# NaN and the infinities are numbers no answer holds, alone or in a list.
@pytest.mark.parametrize("expr,shown_as", [
    ("1e309 - 1e309", "nan"),
    ("abs(-1e309)", "inf"),
    ("-1e309", "-inf"),
    ("[1, 1e309 - 1e309]", "nan"),
    ("[2.5, -1e309]", "-inf"),
])
def test_non_finite_answers_are_type_mismatch(geo_model, expr, shown_as):
    outcome = run_program("pymr", f"def answer():\n    return {expr}", "geo", geo_model)
    assert outcome.to_json() == {"ok": False, "error": "type-mismatch",
                                 "message": f"type-mismatch: cannot interpret {shown_as} "
                                            f"as an answer"}


# An int past the largest float is no answer either, alone or in a list.  One
# past str()'s 4300-digit limit is named by its width: 10 ** 9 squared nine times
# is 10 ** 4608.
SQUARED_NINE_TIMES = "x = 1000000000\n    for i in [1, 2, 3, 4, 5, 6, 7, 8, 9]:\n        x = x * x\n    "


@pytest.mark.parametrize("environment,body,shown_as", [
    ("geo", f"return 1{'0' * 400}", f"1{'0' * 400}"),
    ("geo", f"return -1{'0' * 400}", f"-1{'0' * 400}"),
    ("geo", f"return [2, 1{'0' * 400}]", f"1{'0' * 400}"),
    ("geo", SQUARED_NINE_TIMES + "return x", "<int of 15308 bits>"),
    ("geo", SQUARED_NINE_TIMES + "return [x, geo_model.states[0]]", "<int of 15308 bits>"),
    ("social", SQUARED_NINE_TIMES + "return [x, api.people[0]]", "<int of 15308 bits>"),
    ("geo", SQUARED_NINE_TIMES + "return [set([x, 1])]", "{1, <int of 15308 bits>}"),
])
def test_huge_int_answers_are_type_mismatch(request, environment, body, shown_as):
    world = request.getfixturevalue({"geo": "geo_model", "social": "social_db"}[environment])
    outcome = run_program("pymr", f"def answer():\n    {body}", environment, world)
    assert outcome.to_json() == {"ok": False, "error": "type-mismatch",
                                 "message": f"type-mismatch: cannot interpret {shown_as} "
                                            f"as an answer"}


def test_ints_up_to_14284_bits_show_their_digits():
    assert shown(2 ** 14284 - 1) == str(2 ** 14284 - 1)  # 4300 digits
    assert shown(-2 ** 14284) == "<int of 14285 bits>"
    assert shown([1, 10 ** 4608]) == "[1, <int of 15308 bits>]"
    assert [shown(s) for s in (set(), frozenset(), {10, 9, 100}, frozenset({2}))] == \
        ["set()", "frozenset()", "{9, 10, 100}", "frozenset({2})"]


# Geo lookups take a name string; any other argument is the program's type-mismatch.
@pytest.mark.parametrize("call", ["geo_model.find_state(5)", "geo_model.find_city(5)",
                                  "geo_model.find_river(None)", 'geo_model.find_place(["texas"])'])
def test_geo_lookups_refuse_a_name_that_is_not_a_string(geo_model, call):
    outcome = run_program("pymr", f"def answer():\n    return {call}", "geo", geo_model)
    assert outcome.to_json() == {"ok": False, "error": "type-mismatch",
                                 "message": "type-mismatch: a geo lookup expects a name string"}


# A value whose repr would hold a memory address or a module path is named by
# its class or qualified name, and a set's items are sorted, so a failure message
# is the same in every process; any other value keeps its repr.
@pytest.mark.parametrize("environment,body,message", [
    ("social", "return api", "cannot interpret SocialApi as an answer"),
    ("social", "return [api.people[0], api]", "cannot interpret SocialApi as an answer"),
    ("social", "return Gender", "cannot interpret Gender as an answer"),
    ("social", "return api.find_person_by_id",
     "cannot interpret SocialApi.find_person_by_id as an answer"),
    ("geo", "x = []\n    return x.append", "cannot interpret list.append as an answer"),
    ("geo", "return set([1]).add", "cannot interpret set.add as an answer"),
    ("geo", "x = []\n    x.append(lambda v: v)\n    return x",
     "cannot interpret _Lambda as an answer"),
    ("geo", "return max", "cannot interpret <built-in function max> as an answer"),
    ("geo", "return list", "cannot interpret <class 'list'> as an answer"),
    ("geo", "x = []\n    x.append(x)\n    return x", "cannot interpret [[...]] as an answer"),
    ("social", "return [[api]]", "cannot interpret [SocialApi] as an answer"),
    ("social", "return [[api, api.find_person_by_id, 1]]",
     "cannot interpret [SocialApi, SocialApi.find_person_by_id, 1] as an answer"),
    ("social", "return [set([api, 2])]", "cannot interpret {2, SocialApi} as an answer"),
    ("geo", "return geo_model", "cannot interpret GeoModel as an answer"),
    ("geo", 'return [set(["alpha", "beta", "gamma", "delta"])]',
     "cannot interpret {'alpha', 'beta', 'delta', 'gamma'} as an answer"),
    ("geo", "return [set(geo_model.states)]",
     "cannot interpret {<state arkansas>, <state colorado>, <state kansas>, <state louisiana>, "
     "<state missouri>, <state new mexico>, <state oklahoma>, <state texas>} as an answer"),
    ("calendar", "api.add_event(Event(starts_at=[[api]]))",
     "[CalendarApi] is not a date/time clause"),
    ("calendar", "api.add_event(Event(attendees=[Event()]))", "Event is not a person"),
    ("calendar", "api.add_event(Event(attendees=[api]))", "CalendarApi is not a person"),
    ("calendar", "api.add_event(Event(attendees=[api.get_current_user().find_team_of]))",
     "<bound method Person.find_team_of of <person sarah>> is not a person"),
    ("calendar", "api.add_event(Event(starts_at=[Event]))", "Event is not a date/time clause"),
    ("calendar", "api.add_event(Event(starts_at=[api.find_person]))",
     "CalendarApi.find_person is not a date/time clause"),
    ("calendar", "api.add_event(Event(starts_at=[DateTimeClause.get_next_dow]))",
     "DateTimeClause.get_next_dow is not a date/time clause"),
])
def test_failure_messages_name_values_without_addresses(request, environment, body, message):
    world = request.getfixturevalue(
        {"geo": "geo_model", "social": "social_db", "calendar": "calendar_world"}[environment])
    outcome = run_program("pymr", f"def answer():\n    {body}", environment, world)
    assert outcome.to_json() == {"ok": False, "error": "type-mismatch",
                                 "message": f"type-mismatch: {message}"}


@pytest.mark.parametrize("body,message", [
    ("return 1 / 0", "division-by-zero: division by zero"),
    ("for x in 3:\n        y = x\n    return 1", "type-mismatch: cannot iterate over int"),
    ("x = 1\n    return x()", "type-mismatch: int is not callable"),
    ('return [1]["a"]', "type-mismatch: indices must be integers"),
    ("x = 5\n    return x[0]", "type-mismatch: cannot index int"),
    ("return set().pop", "attribute-not-found: sets have no attribute 'pop'"),
    ("return len(1)", "type-mismatch: object of type 'int' has no len()"),
])
def test_runtime_failures_are_named(geo_model, body, message):
    outcome = run_program("pymr", f"def answer():\n    {body}", "geo", geo_model)
    assert outcome.to_json() == {"ok": False, "error": message.split(":")[0], "message": message}


class Opaque:
    """A class with the default repr, which holds the instance's address."""


def test_shown_names_address_bearing_items_of_any_builtin_container():
    item = Opaque()
    cycle = [item]
    cycle.append(cycle)
    inner = []
    outer = (inner,)
    inner.append(outer)
    for value, text in [((item,), "(Opaque,)"), ((item, [item]), "(Opaque, [Opaque])"),
                        (frozenset({item, 3}), "frozenset({3, Opaque})"),
                        (cycle, "[Opaque, [...]]"), (outer, "([(...)],)"),
                        ({10, 2, 18}, "{2, 10, 18}"),
                        ({True, 2.5, -1, "b"}, "{-1, 2.5, 'b', True}"),
                        (frozenset({"b", "a"}), "frozenset({'a', 'b'})")]:
        assert shown(value) == text
    for plain in ([1, "a", 2.5, None], (1,), [], set(), ()):
        assert shown(plain) == repr(plain)
