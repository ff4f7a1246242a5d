"""The failure code and message of programs that fail at run time.

Each case names the operator family whose failure path it pins: the message is
part of a verdict's explanation, so it may change only on purpose.  Whatever an
interpreter raises, ``run_program`` is where it becomes a failure outcome.
"""

import importlib

import pytest

from semkit.errors import MrExecError
from semkit.execute import DIALECTS, run_program
from semkit.outcomes import Outcome

PEOPLE = "(getProperty en.person !type)"
NOBODY = f"(filter {PEOPLE} gender = en.gender.none)"
NO_PROPERTY = ("unknown-property", "unknown-property: no property 'shoe_size'")


def _mismatch(message):
    return "type-mismatch", f"type-mismatch: {message}"


NOT_NUMBERS = _mismatch("aggregate needs a nonempty number set")


CASES = [
    # an extractor on an entity of the wrong kind names the first such entity's kind
    ("funql", "answer(area_1(city(all)))", _mismatch("area_1 not defined for city")),
    ("funql", "answer(population_1(river(all)))",
     _mismatch("population_1 not defined for river")),
    ("funql", "answer(population_1(loc_2(stateid('texas'))))",
     _mismatch("population_1 not defined for place")),
    ("funql", "answer(density_1(countryid('usa')))",
     _mismatch("density_1 not defined for country")),
    ("funql", "answer(elevation_1(state(all)))", _mismatch("elevation_1 not defined for state")),
    ("funql", "answer(len(state(all)))", _mismatch("len not defined for state")),
    ("funql", "answer(size(place(all)))", _mismatch("size not defined for place")),
    ("funql", "answer(area_1(count(state(all))))",
     _mismatch("area_1 cannot be applied to numbers of this shape")),
    # a superlative on entities of the wrong kind, or on numbers
    ("funql", "answer(largest(place(all)))",
     _mismatch("largest cannot be applied to entities of this shape")),
    ("funql", "answer(highest(state(all)))",
     _mismatch("highest cannot be applied to entities of this shape")),
    ("funql", "answer(shortest(city(all)))",
     _mismatch("shortest cannot be applied to entities of this shape")),
    ("funql", "answer(lowest(count(place(all))))",
     _mismatch("lowest cannot be applied to numbers of this shape")),
    # the other operators on the wrong shape
    ("funql", "answer(sum(state(all)))", _mismatch("sum cannot be applied to entities of this shape")),
    ("funql", "answer(state(count(city(all))))",
     _mismatch("state cannot be applied to numbers of this shape")),
    ("funql", "answer(loc_2(count(city(all))))",
     _mismatch("loc_2 cannot be applied to numbers of this shape")),
    ("funql", "answer(exclude(count(state(all)), state(all)))",
     _mismatch("exclude cannot be applied to numbers of this shape")),
    ("funql", "answer(exclude(state(all), count(state(all))))",
     _mismatch("exclude cannot be applied to numbers of this shape")),
    ("funql", "answer(exclude(count(state(all)), area_1(city(all))))",  # both sides run first
     _mismatch("area_1 not defined for city")),
    ("funql", "answer(intersection(state(all), len(river(all))))",
     _mismatch("intersection cannot be applied to numbers of this shape")),
    ("funql", "answer(intersection(count(river(all)), len(river(all))))",
     _mismatch("intersection cannot be applied to numbers of this shape")),
    ("funql", "answer(most(state(all)))", _mismatch("most expects P(rel_i(S))")),
    ("funql", "answer(most(count(loc_2(state(all)))))", _mismatch("most expects P(rel_i(S))")),
    ("funql", "answer(most(state(loc_1(count(city(all))))))",
     _mismatch("most cannot be applied to numbers of this shape")),
    ("funql", "answer(fewest(river(next_to_2(area_1(state(all))))))",
     _mismatch("fewest cannot be applied to numbers of this shape")),
    ("funql", "answer(largest_one(state(all)))",
     _mismatch("largest_one expects area_1/population_1/density_1 of a set")),
    ("funql", "answer(largest_one(len(river(all))))",
     _mismatch("largest_one expects area_1/population_1/density_1 of a set")),
    ("funql", "answer(largest_one(area_1(city(all))))",
     _mismatch("largest_one cannot be applied to entities of this shape")),
    ("funql", "answer(smallest_one(density_1(count(state(all)))))",
     _mismatch("smallest_one cannot be applied to numbers of this shape")),
    # a λ-DCS property lookup on an unknown property
    ("ldcs-simple", f"(listValue (getProperty {PEOPLE} shoe_size))", NO_PROPERTY),
    ("ldcs-simple", f"(listValue (getProperty {PEOPLE} !shoe_size))", NO_PROPERTY),
    ("ldcs-simple", f"(listValue (filter {PEOPLE} shoe_size = 3))", NO_PROPERTY),
    ("ldcs-simple", f"(listValue (superlative {PEOPLE} argmax shoe_size))", NO_PROPERTY),
    ("ldcs-simple", f"(listValue (countSuperlative {PEOPLE} argmin shoe_size))", NO_PROPERTY),
    ("ldcs-simple", f"(listValue (countComparative {PEOPLE} shoe_size > 1))", NO_PROPERTY),
    ("ldcs", "(call SW.listValue (call SW.filter (call SW.getProperty (call SW.singleton "
             "en.person) (string !type)) (string shoe_size) (string =) (number 3)))", NO_PROPERTY),
    # ... which the property name alone decides, on the empty set too
    ("ldcs-simple", f"(listValue (getProperty {NOBODY} shoe_size))", NO_PROPERTY),
    ("ldcs-simple", f"(listValue (getProperty {NOBODY} !shoe_size))", NO_PROPERTY),
    ("ldcs-simple", f"(listValue (filter {NOBODY} shoe_size = 3))", NO_PROPERTY),
    ("ldcs-simple", f"(listValue (superlative {NOBODY} argmax shoe_size))", NO_PROPERTY),
    ("ldcs-simple", f"(listValue (countSuperlative {NOBODY} argmin shoe_size))", NO_PROPERTY),
    ("ldcs-simple", f"(listValue (countComparative {NOBODY} shoe_size > 1))", NO_PROPERTY),
    # a λ-DCS comparison with an operator outside = != < > <= >=, decided before any set is
    ("ldcs-simple", f"(listValue (filter {PEOPLE} height ~ 170))",
     _mismatch("unknown comparison operator '~'")),
    ("ldcs-simple", f"(listValue (filter {PEOPLE} height => 170))",
     _mismatch("unknown comparison operator '=>'")),
    ("ldcs-simple", f"(listValue (countComparative {PEOPLE} friends =< 1))",
     _mismatch("unknown comparison operator '=<'")),
    ("ldcs-simple", f"(listValue (filter {NOBODY} height ~ 170))",
     _mismatch("unknown comparison operator '~'")),
    ("ldcs-simple", "(listValue (countComparative (size en.person) friends ~ 1))",
     _mismatch("unknown comparison operator '~'")),
    # λ-DCS: an unbound symbol, an unknown operator, a head that is not a symbol and the
    # wrong number of arguments
    ("ldcs-simple", "(listValue nobody)",
     ("name-not-found", "name-not-found: unbound symbol 'nobody'")),
    ("ldcs-simple", "(frobnicate en.person)",
     ("name-not-found", "name-not-found: unknown operator 'frobnicate'")),
    ("ldcs-simple", "((listValue en.person))",
     _mismatch("operator is not a symbol: (listValue en.person)")),
    ("ldcs-simple", "(listValue)", ("arity", "arity: listValue takes 1 arguments")),
    ("ldcs-simple", "(size en.person en.person)", ("arity", "arity: size takes 1 arguments")),
    # ... filter and getProperty of what is not people, and !type of what is not a person
    ("ldcs-simple", "(filter en.gender.male gender = en.gender.male)",
     _mismatch("filter expects people, got 'en.gender.male'")),
    ("ldcs-simple", "(getProperty (size en.person) height)",
     _mismatch("getProperty expects people, got 1")),
    ("ldcs-simple", f"(getProperty {PEOPLE} (size {PEOPLE}))",
     _mismatch("getProperty expects a property symbol")),
    ("ldcs-simple", f"(getProperty (getProperty {PEOPLE} height) !type)",
     _mismatch("!type of 170")),
    # ... a superlative of a non-numeric property or in a mode that is not argmax/argmin
    ("ldcs-simple", f"(superlative {PEOPLE} argmax gender)", _mismatch("gender is not numeric")),
    ("ldcs-simple", f"(superlative {PEOPLE} biggest height)",
     _mismatch("mode must be argmax or argmin")),
    ("ldcs-simple", f"(countSuperlative {PEOPLE} (size en.person) friends)",
     _mismatch("mode must be argmax or argmin")),
    # ... a count that is not a number, a bad or empty aggregate, and a mixed result
    ("ldcs-simple", f"(countComparative {PEOPLE} friends > en.gender.male)",
     _mismatch("countComparative needs a number")),
    ("ldcs-simple", f"(countComparative {PEOPLE} friends > (size {PEOPLE}))",
     _mismatch("countComparative needs a number")),
    ("ldcs-simple", f"(aggregate median (getProperty {PEOPLE} height))",
     _mismatch("aggregate mode must be sum/avg/min/max")),
    ("ldcs-simple", f"(aggregate sum {NOBODY})", NOT_NUMBERS),
    ("ldcs-simple", f"(aggregate sum {PEOPLE})", NOT_NUMBERS),
    ("ldcs-simple", f"(concat (size {PEOPLE}) {PEOPLE})",
     _mismatch("cannot interpret 8 as an answer")),
    # Dataflow-Simple: a date word other than TODAY/TOMORROW, and clauses with bad arguments
    ("dataflow-simple", "CreateEvent( starts_at( YESTERDAY ) )",
     ("invalid-datetime", "invalid-datetime: 'YESTERDAY' is not a date/time clause")),
    ("dataflow-simple", "CreateEvent( starts_at( NextDOW( 5 ) ) )",
     ("invalid-datetime", "invalid-datetime: NextDOW needs a day word")),
    ("dataflow-simple", "CreateEvent( starts_at( NextDOW( Blursday ) ) )",
     ("invalid-datetime", "invalid-datetime: unknown day of week 'Blursday'")),
    ("dataflow-simple", "CreateEvent( starts_at( date_by_mdy( may , 1 ) ) )",
     ("invalid-datetime", "invalid-datetime: date_by_mdy needs numbers")),
    ("dataflow-simple", "CreateEvent( starts_at( date_by_mdy( 13 , 1 ) ) )",
     ("invalid-datetime", "invalid-datetime: bad month/day 13/1")),
    ("dataflow-simple", "CreateEvent( starts_at( time_by_hm( five , pm ) ) )",
     ("invalid-datetime", "invalid-datetime: time_by_hm needs a number and am/pm")),
    ("dataflow-simple", "CreateEvent( starts_at( time_by_hm( 5 , 6 ) ) )",
     ("invalid-datetime", "invalid-datetime: time_by_hm needs a number and am/pm")),
    ("dataflow-simple", "CreateEvent( starts_at( time_by_hm( 5 , noon ) ) )",
     ("invalid-datetime", "invalid-datetime: bad time 5 noon")),
    # ... what is not a date/time clause in starts_at, and people that do not resolve
    ("dataflow-simple", "CreateEvent( starts_at( CurrentUser() ) )",
     _mismatch("not a date/time clause: CurrentUser()")),
    ("dataflow-simple", "CreateEvent( starts_at( 5 ) )", _mismatch("not a date/time clause: 5")),
    ("dataflow-simple", "CreateEvent( with_attendee( 5 ) )", _mismatch("not people: 5")),
    ("dataflow-simple", "CreateEvent( avoid_attendee( NextDOW( FRIDAY ) ) )",
     _mismatch("not people: NextDOW( FRIDAY )")),
    # ... a head that is no constraint, and a root that is not CreateEvent
    ("dataflow-simple", "CreateEvent( FindManager( CurrentUser() ) )",
     ("unresolvable-constraint", "unresolvable-constraint: FindManager is not a constraint")),
    ("dataflow-simple", "CreateEvent( Central Park )",
     ("unresolvable-constraint", "unresolvable-constraint: bad constraint 'Central Park'")),
    ("dataflow-simple", "AND( at_location( Central Park ) )",
     ("unresolvable-constraint", "unresolvable-constraint: program root must be CreateEvent")),
    ("dataflow-simple", "NextDOW( FRIDAY )",
     ("unresolvable-constraint", "unresolvable-constraint: program root must be CreateEvent")),
]

ENVIRONMENT_OF = {"funql": "geo", "ldcs": "social", "ldcs-simple": "social",
                  "dataflow-simple": "calendar"}


@pytest.mark.parametrize("dialect,text,failure", CASES, ids=[text for _, text, _ in CASES])
def test_run_time_failure_code_and_message(dialect, text, failure, geo_model, social_db,
                                           calendar_world):
    environment = ENVIRONMENT_OF[dialect]
    world = {"geo": geo_model, "social": social_db, "calendar": calendar_world}[environment]
    outcome = run_program(dialect, text, environment, world)
    assert (outcome.ok, outcome.error, outcome.message) == (False, *failure)


# dialect -> (the interpreter function its execute step calls, a program that parses, environment)
EXECUTORS = {
    "funql": ("exec_funql", "answer(count(state(all)))", "geo"),
    "ldcs": ("exec_ldcs_simple", "(call SW.listValue (call SW.getProperty "
                                 "(call SW.singleton en.person) (string !type)))", "social"),
    "ldcs-simple": ("exec_ldcs_simple", f"(listValue {PEOPLE})", "social"),
    "dataflow-simple": ("exec_dfs", "CreateEvent()", "calendar"),
    "pymr": ("exec_pymr", "def answer():\n    return 1", "geo"),
}


@pytest.mark.parametrize("dialect", sorted(DIALECTS))
def test_run_program_alone_captures_what_an_interpreter_raises(
        dialect, monkeypatch, geo_model, social_db, calendar_world):
    name, text, environment = EXECUTORS[dialect]
    world = {"geo": geo_model, "social": social_db, "calendar": calendar_world}[environment]
    module = importlib.import_module(DIALECTS[dialect].module)
    assert run_program(dialect, text, environment, world).ok
    for raised, expected in [
        (MrExecError("name-not-found", "boom"),
         Outcome.failure("name-not-found", "name-not-found: boom")),
        (RuntimeError("boom"), Outcome.failure("execution-error", "RuntimeError: boom")),
    ]:
        def refuse(*args, raised=raised):
            raise raised
        monkeypatch.setattr(module, name, refuse)
        assert run_program(dialect, text, environment, world) == expected
