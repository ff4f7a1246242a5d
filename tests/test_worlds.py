"""Read-only worlds: no program can change what a later program is run against."""

import copy
import pickle
from importlib import import_module

import pytest

from semkit.errors import MrExecError
from semkit.evaluation import canonicalize_names
from semkit.execute import ENVIRONMENTS, load_environment, run_program
from semkit.readonly import ReadOnlyList
from semkit.resources import environment_path

GEO_PROBES = [
    "s = geo_model.states\n    s.remove(s[0])",
    "geo_model.states[0].next_to.extend(geo_model.states)",
    "geo_model.rivers[0].traverses.append(geo_model.states[0])",
    "geo_model.states[0].rivers.remove(geo_model.states[0].rivers[0])",
    "geo_model.states[0].cities.append(geo_model.cities[0])",
    "geo_model.cities.extend(geo_model.cities)",
    "geo_model.places.remove(geo_model.places[0])",
    "geo_model.rivers.append(geo_model.rivers[0])",
]
SOCIAL_PROBES = [
    "p = api.people\n    p.remove(p[0])",
    "api.people[0].friends.append(api.people[1])",
    "api.people[0].education.extend(api.people[1].education)",
    "api.people[0].employment.remove(api.people[0].employment[0])",
]
PROBES = [("geo", body) for body in GEO_PROBES] + [("social", body) for body in SOCIAL_PROBES]


def _program(body: str) -> str:
    return f"def answer():\n    {body}\n    return 1"


def _load(environment):
    return load_environment(environment, environment_path(environment))


def _parse_anew(environment):
    """The bundled world parsed from its file by the environment's own loader, not the
    copy ``load_environment`` shares within the process."""
    module, loader = ENVIRONMENTS[environment]
    return getattr(import_module(module), loader)(environment_path(environment))


def _gold_outcomes(datasets, worlds) -> dict:
    """Every bundled program's outcome; calendar programs after name canonicalization."""
    outcomes = {}
    for environment, dataset in datasets.items():
        world = worlds[environment]
        for example in dataset.examples:
            programs = dict(example.programs)
            if environment == "calendar":
                programs["pymr"], programs["dataflow-simple"] = canonicalize_names(
                    programs["pymr"], programs["dataflow-simple"], world)
            for dialect, text in programs.items():
                outcomes[example.id, dialect] = run_program(dialect, text, environment, world)
    return outcomes


def test_read_only_list_refuses_every_mutator():
    frozen = ReadOnlyList([3, 1, 2])
    mutators = [lambda x: x.append(4), lambda x: x.extend([4]), lambda x: x.insert(0, 4),
                lambda x: x.remove(1), lambda x: x.pop(), lambda x: x.clear(),
                lambda x: x.sort(), lambda x: x.reverse(),
                lambda x: x.__setitem__(0, 4), lambda x: x.__delitem__(0),
                lambda x: x.__iadd__([4]), lambda x: x.__imul__(2)]
    for mutate in mutators:
        with pytest.raises(MrExecError, match="read-only"):
            mutate(frozen)
    assert frozen == [3, 1, 2] and isinstance(frozen, list)
    assert frozen[0] == 3 and len(frozen) == 3 and sorted(frozen) == [1, 2, 3]
    assert frozen + [4] == [3, 1, 2, 4] and type(frozen + [4]) is list
    copy = list(frozen)
    copy.append(4)
    assert copy == [3, 1, 2, 4] and frozen == [3, 1, 2]


def test_worlds_copy_and_pickle_read_only(geo_model):
    for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        model = clone(geo_model)
        assert type(model.states) is ReadOnlyList
        assert [s.name for s in model.states] == [s.name for s in geo_model.states]
        assert type(model.states[0].next_to) is ReadOnlyList


@pytest.mark.parametrize("environment,body", PROBES)
def test_mutating_probe_is_a_captured_failure(environment, body):
    world = _load(environment)
    outcome = run_program("pymr", _program(body), environment, world)
    assert not outcome.ok and outcome.error == "read-only", outcome


def test_every_loader_freezes_its_collections():
    model, db, calendar = _load("geo"), _load("social"), _load("calendar")
    collections = [model.states, model.cities, model.rivers, model.places, db.people,
                   calendar.people]
    for state in model.states:
        collections += [state.next_to, state.rivers, state.cities]
    collections += [river.traverses for river in model.rivers]
    for person in db.people:
        collections += [person.friends, person.education, person.employment]
    assert all(type(c) is ReadOnlyList for c in collections)


def test_private_copies_stay_mutable(geo_model):
    copy = run_program("pymr", "def answer():\n    s = list(geo_model.states)\n"
                               "    s.remove(s[0])\n    return len(s)", "geo", geo_model)
    assert copy.ok and copy.value.values == (len(geo_model.states) - 1,)


def test_probe_from_the_motivation_leaves_the_world_whole():
    model = _load("geo")
    probe = run_program("pymr", _program("s = geo_model.states\n    s.remove(s[0])"),
                        "geo", model)
    assert not probe.ok and probe.error == "read-only"
    count = run_program("pymr", "def answer():\n    return len(geo_model.states)", "geo", model)
    funql = run_program("funql", "answer(count(state(all)))", "geo", model)
    assert count.value.values == funql.value.values == (8.0,)


def test_gold_outcomes_survive_every_probe(geoquery, overnight, smcalflow):
    datasets = {"geo": geoquery, "social": overnight, "calendar": smcalflow}
    probed = {environment: _load(environment) for environment in datasets}
    for environment, body in PROBES:
        run_program("pymr", _program(body), environment, probed[environment])
    fresh = {environment: _parse_anew(environment) for environment in datasets}
    assert all(fresh[env] is not probed[env] for env in datasets)
    after = _gold_outcomes(datasets, probed)
    assert after == _gold_outcomes(datasets, fresh)
    assert len(after) > 100 and all(outcome.ok for outcome in after.values())
