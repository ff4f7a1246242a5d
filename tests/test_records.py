"""Records: what a pymr program can reach of them, and the value semantics of the rest.

Records are plain ``__slots__`` classes where a program can reach them or their
module tells nodes from tuples, and named tuples elsewhere (README, "Records").
"""

import ast as pyast
import copy
import pickle
from importlib import import_module

import pytest

from semkit.calendar_world import DateClause, Event, TimeClause
from semkit.calflow import Call, NumberArg, Word
from semkit.corpus import Dataset, Example, Split
from semkit.evaluation import AccuracyReport, ComparisonPolicy
from semkit.execute import DIALECTS, ENVIRONMENTS, Dialect, load_environment, run_program
from semkit.experiment import RunSpec, RunState
from semkit.funql import ALL, All, Apply, EntityLiteral
from semkit.llm import CompletionRequest
from semkit.outcomes import CreatedEvent, Denotation, Outcome, WorldDelta
from semkit.pymr import PymrAst
from semkit.resources import environment_path
from semkit.selection import GreedyTrace
from semkit.social import Num, Sym


def _surface(environment):
    return import_module(ENVIRONMENTS[environment][0]).PYMR


def test_no_class_a_pymr_program_reaches_is_a_tuple():
    reachable = {DateClause, TimeClause, Event}
    for environment in ENVIRONMENTS:
        _, readable, namespaces, _ = _surface(environment)
        reachable.update(readable, namespaces)
    assert len(reachable) == 18
    assert [cls.__name__ for cls in reachable if issubclass(cls, tuple)] == []


def _run(environment, body):
    world = load_environment(environment, environment_path(environment))
    return run_program("pymr", f"def answer():\n    {body}", environment, world).to_json()


# tuple methods and tuple iteration stay out of a program's reach
@pytest.mark.parametrize("environment, body, error, message", [
    ("geo", "return geo_model.states[0].count", "attribute-not-found",
     "attribute-not-found: 'State' object has no attribute 'count'"),
    ("social", "return api.people[0].index", "attribute-not-found",
     "attribute-not-found: 'Person' object has no attribute 'index'"),
    ("social", "return api.people[0].education[0].count", "attribute-not-found",
     "attribute-not-found: 'EducationRecord' object has no attribute 'count'"),
    ("calendar", "return len(DateTimeClause.time_by_hm(5, 'pm'))", "type-mismatch",
     "type-mismatch: object of type 'TimeClause' has no len()"),
    ("calendar", "return [x for x in DateTimeValues.Today]", "type-mismatch",
     "type-mismatch: cannot iterate over DateClause"),
    ("calendar", "return api.get_current_user().index", "attribute-not-found",
     "attribute-not-found: 'Person' object has no attribute 'index'"),
])
def test_records_a_program_reaches_are_not_tuples_to_it(environment, body, error, message):
    assert _run(environment, body) == {"ok": False, "error": error, "message": message}


@pytest.mark.parametrize("environment, body, message", [
    ("social", "return [api.people[0].employment[0]]",
     "type-mismatch: cannot interpret EmploymentRecord(employer='en.employer.mckinsey', "
     "job_title='en.job_title.consultant', start_date=2008, end_date=2012) as an answer"),
    ("social", "return api.people[0].education",
     "type-mismatch: cannot interpret EducationRecord(institution="
     "'en.institution.brown_university', start_date=2004, end_date=2008) as an answer"),
    ("calendar", "api.add_event(Event(attendees=[DateTimeValues.Tomorrow]))",
     "type-mismatch: DateClause(kind='tomorrow', weekday=None, month=None, day=None, "
     "year=None) is not a person"),
    ("calendar", "api.add_event(Event(attendees=[DateTimeClause.time_by_hm(5, 'pm')]))",
     "type-mismatch: TimeClause(hour=17, minute=0) is not a person"),
    ("geo", "return [geo_model]", "type-mismatch: cannot interpret GeoModel as an answer"),
])
def test_failure_messages_show_records_as_before(environment, body, message):
    assert _run(environment, body) == {"ok": False, "error": message.split(":")[0],
                                       "message": message}


def test_programs_see_clause_and_person_equality_and_hashing():
    # four distinct items: two equal clauses and two handles of one person count once each
    body = ("api.add_event(Event(starts_at=[DateTimeValues.Today], duration=60 * len(set(["
            "DateTimeClause.time_by_hm(5, 'pm'), DateTimeClause.time_by_hm(5, 'pm'), "
            "DateTimeValues.Today, DateTimeClause.date_by_mdy(1, 2), "
            "api.get_current_user(), api.get_current_user()]))))")
    created = _run("calendar", body)["result"]["created"]
    assert [(e["start"], e["end"]) for e in created] == [("2023-01-02T09:00:00",
                                                          "2023-01-02T13:00:00")]


def _fields(record) -> tuple:
    return getattr(record, "_fields", type(record).__slots__)


_FUNC = pyast.parse("def answer():\n    return 1").body[0]
_DIALECT = DIALECTS["funql"]
_EXAMPLE = Example("x", "u", {"funql": "answer(1)"})
_STATE = (None, None, (_EXAMPLE,), len, abs)
_SPEC = ({}, "d.jsonl", "s.json", "geo", "funql", "funql", (0,), "full", "random", 3, None, 0.0)

# (record, an equal one built anew, a different one): the records that compare by value
VALUES = [
    (Denotation.of_number(2), Denotation("number", values=(2.0,)), Denotation.of_number(3)),
    (CreatedEvent("s", "e"), CreatedEvent("s", "e", None), CreatedEvent("s", "e", "x")),
    (WorldDelta(), WorldDelta(()), WorldDelta((CreatedEvent("s", "e"),))),
    (Outcome.failure("c", "m"), Outcome(False, None, "c", "m"), Outcome.success(None)),
    (_DIALECT, Dialect(*_DIALECT), _DIALECT._replace(environment=None)),
    (ComparisonPolicy("state"), ComparisonPolicy("state", False), ComparisonPolicy("state", True)),
    (AccuracyReport(0, 1, 1, 0), AccuracyReport(0, 1, 1, 0, ()), AccuracyReport(1, 1, 1, 0)),
    (_EXAMPLE, Example("x", "u", {"funql": "answer(1)"}), _EXAMPLE._replace(id="y")),
    (Split("s", ("a",), ()), Split("s", ("a",), ()), Split("s", (), ("a",))),
    (GreedyTrace("a", 1), GreedyTrace("a", 1), GreedyTrace(None, 1)),
    (RunSpec(*_SPEC), RunSpec(*_SPEC), RunSpec(*_SPEC)._replace(k=4)),
    (RunState(*_STATE), RunState(*_STATE), RunState(*_STATE)._replace(judge=len)),
    (PymrAst(_FUNC, frozenset()), PymrAst(_FUNC, frozenset()), PymrAst(_FUNC, frozenset("a"))),
    (Call("CreateEvent"), Call("CreateEvent", ()), Call("AND", (Word("x"),))),
    (Word("x"), Word("x"), Word("y")),
    (NumberArg(5), NumberArg(5), NumberArg(6)),
    (EntityLiteral("city", "austin", "tx"), EntityLiteral("city", "austin", "tx"),
     EntityLiteral("city", "austin")),
    (Apply("state", (ALL,)), Apply("state", (All(),)), Apply("river", (ALL,))),
    (ALL, All(), None),
    (Sym("en.person"), Sym("en.person"), Sym("en.city")),
    (Num(1.0), Num(1.0), Num(2.0)),
    (DateClause("mdy", None, 1, 2), DateClause("mdy", month=1, day=2), DateClause("today")),
    (TimeClause(17), TimeClause(17, 0), TimeClause(17, 30)),
    (Dataset("d", (), (_EXAMPLE,)), Dataset("d", (), (_EXAMPLE,)), Dataset("e", (), ())),
]


@pytest.mark.parametrize("record, same, other", VALUES,
                         ids=[type(v[0]).__name__ for v in VALUES])
def test_value_records_compare_and_hash_by_their_fields(record, same, other):
    assert record == same and not record != same
    assert record != other and not record == other
    assert record != "x" and type(record) is type(same)
    values = tuple(getattr(record, name) for name in _fields(record))
    try:
        hash(values)
    except TypeError:  # a dict or list in a field: unhashable, as the fields are
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(same) == hash(values)


FROZEN = [v[0] for v in VALUES] + [
    CompletionRequest("p", "m")]


@pytest.mark.parametrize("record", FROZEN, ids=[type(r).__name__ for r in FROZEN])
def test_frozen_records_refuse_assignment_and_deletion(record):
    for name in (*_fields(record), "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert not hasattr(record, "other")


@pytest.mark.parametrize("record", [r for r in FROZEN if not isinstance(r, (tuple, All))],
                         ids=lambda r: type(r).__name__)
def test_frozen_slots_records_copy_and_pickle(record):
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        assert pickle.dumps(clone) == pickle.dumps(record)  # every field, alike
        with pytest.raises(AttributeError):
            setattr(clone, _fields(record)[0], 1)


def test_a_dataset_derives_its_map_and_keeps_it():
    dataset = Dataset("d", (), (_EXAMPLE,))
    assert dataset.by_id == {"x": _EXAMPLE}
    with pytest.raises(AttributeError):
        dataset.by_id = {}
    with pytest.raises(TypeError):
        Dataset("d", (), (), by_id={})


def test_a_dataset_compares_hashes_and_shows_itself_without_its_map():
    dataset = Dataset("d", ("funql",), (_EXAMPLE,))
    assert repr(dataset) == ("Dataset(name='d', dialects=('funql',), examples=(Example(id='x', "
                             "utterance='u', programs={'funql': 'answer(1)'}, "
                             "tags=frozenset()),))")
    assert hash(Dataset("e", (), ())) == hash(("e", (), ()))
