import json
import random
import re

import pytest

from semkit import evaluation, execute
from semkit.calendar_world import load_world
from semkit.errors import PoolExhaustedError
from semkit.evaluation import (POLICIES, ComparisonPolicy, canonicalize_names,
                               compare_denotations, compare_outcomes, compare_states,
                               exact_match, report_from_verdicts, score_run, scorer, verdict_of)
from semkit.execute import run_program
from semkit.funql import exec_funql, parse_funql
from semkit.outcomes import CreatedEvent, Denotation, Outcome, WorldDelta
from semkit.resources import environment_path

SET = ComparisonPolicy(mode="denotation-set")
MULTISET = ComparisonPolicy(mode="denotation-multiset")
STATE = POLICIES["calendar"]


def ents(*names):
    return Denotation.of_entities(("city", n) for n in names)


def test_set_mode_ignores_order_and_multiplicity():
    assert compare_denotations(ents("austin", "dallas"), ents("dallas", "austin"), SET)
    assert compare_denotations(ents("austin", "austin"), ents("austin"), SET)


def test_multiset_mode_counts_multiplicity():
    assert not compare_denotations(ents("austin", "austin"), ents("austin"), MULTISET)
    assert compare_denotations(ents("austin", "dallas"), ents("dallas", "austin"), MULTISET)


def test_kind_mismatch_is_false():
    assert not compare_denotations(Denotation.of_number(8), ents("austin"), SET)


def test_numbers_compare_with_relative_tolerance():
    a = Denotation.of_number(1.0)
    b = Denotation.of_number(1.0 + 1e-12)
    c = Denotation.of_number(1.0 + 1e-6)
    assert compare_denotations(a, b, SET)
    assert not compare_denotations(a, c, SET)


def test_units_are_informative_only():
    assert compare_denotations(Denotation.of_number(5, "km"), Denotation.of_number(5), SET)


def test_permutation_invariance():
    rng = random.Random(0)
    names = [f"c{i}" for i in range(10)]
    for _ in range(500):
        shuffled = list(names)
        rng.shuffle(shuffled)
        assert compare_denotations(ents(*shuffled), ents(*names), MULTISET)


def event(start="2023-01-02T09:00:00", end="2023-01-02T09:30:00", subject=None,
          location=None, attendees=(), avoided=()):
    return CreatedEvent(start=start, end=end, subject=subject, location=location,
                        attendees=frozenset(attendees), avoided=frozenset(avoided))


def test_subject_is_ignored():
    a = WorldDelta((event(subject="Meeting"),))
    b = WorldDelta((event(subject="Sync-up"),))
    assert compare_states(a, b)


def test_state_differences_matter():
    a = WorldDelta((event(),))
    assert not compare_states(a, WorldDelta((event(start="2023-01-02T10:00:00"),)))
    assert not compare_states(a, WorldDelta(()))
    assert not compare_states(a, WorldDelta((event(attendees={"p1"}),)))


def test_canonicalize_names_case_insensitive(calendar_world):
    pred = 'def answer():\n    return api.find_person("john")'
    gold = "CreateEvent( with_attendee( John ) )"
    new_pred, new_gold = canonicalize_names(pred, gold, calendar_world)
    first = calendar_world.people[0].name
    assert f'find_person("{first}")' in new_pred
    assert f"with_attendee( {first} )" in new_gold


def test_canonicalize_is_consistent_and_idempotent(calendar_world):
    pred = ('def answer():\n    jane = api.find_person("Jane")\n'
            '    bob = api.find_person("Bob")\n    return jane')
    gold = "CreateEvent( AND( with_attendee( Jane ) , avoid_attendee( Bob ) ) )"
    p1, g1 = canonicalize_names(pred, gold, calendar_world)
    p2, g2 = canonicalize_names(p1, g1, calendar_world)
    assert (p1, g1) == (p2, g2)
    identical_a, identical_b = canonicalize_names(gold, gold, calendar_world)
    assert identical_a == identical_b


# seven distinct people; the bundled calendar world has six
CROWD = ("CreateEvent( AND( with_attendee( A ) , with_attendee( B ) , with_attendee( C ) , "
         "with_attendee( D ) , with_attendee( E ) , with_attendee( F ) , "
         "with_attendee( G ) ) )")


def test_canonicalize_pool_exhausted(calendar_world):
    with pytest.raises(PoolExhaustedError):
        canonicalize_names(CROWD, CROWD, calendar_world)


def test_calendar_scorer_canonicalizes_names(calendar_world, smcalflow):
    score = scorer("calendar", calendar_world)
    sm07 = smcalflow["sm-07"]  # names Mary, who is not in the world
    pymr, dfs = sm07.programs["pymr"], sm07.programs["dataflow-simple"]
    assert run_program("pymr", pymr, "calendar", calendar_world).error == "unknown-person"
    assert score("pymr", pymr, "dataflow-simple", dfs) == "correct"
    # a pair naming more people than the world has is the prediction's failure, unless the
    # gold alone does: then it is the gold's
    assert score("dataflow-simple", CROWD, "dataflow-simple", dfs) == "execution-failure"
    assert score("pymr", pymr, "dataflow-simple", CROWD) == "gold-error"
    assert score("dataflow-simple", CROWD, "dataflow-simple", CROWD) == "gold-error"


# the bundled golds quote each name in double quotes; Python reads these spellings the same
@pytest.mark.parametrize("spelling", ["find_person('{}')", 'find_person(name="{}")',
                                      "find_person( name = '{}' )"])
def test_a_name_in_single_quotes_or_by_keyword_is_canonicalized(calendar_world, smcalflow,
                                                                 spelling):
    quoted = re.compile(r'find_person\("([^"]*)"\)')
    golds = [ex for ex in smcalflow.examples if quoted.search(ex.programs.get("pymr", ""))]
    assert len(golds) == 9
    score = scorer("calendar", calendar_world)
    for example in golds:
        pred = quoted.sub(lambda m: spelling.format(m.group(1)), example.programs["pymr"])
        for gold_dialect in ("pymr", "dataflow-simple"):
            gold = example.programs[gold_dialect]
            assert score("pymr", pred, gold_dialect, gold) == "correct", (example.id, gold_dialect)
            once = canonicalize_names(pred, gold, calendar_world)
            assert canonicalize_names(*once, calendar_world) == once
    # a single-quoted seventh name still exhausts the world's six people
    six = CROWD.replace(" , with_attendee( G )", "")
    seventh = "def answer():\n    api.add_event(Event(attendees=[api.find_person('G')]))"
    assert score("pymr", seventh, "dataflow-simple", six) == "execution-failure"


def test_a_name_held_in_a_variable_is_not_canonicalized(calendar_world, smcalflow):
    """A known gap: the rewrite reads literals only, so a name passed through a variable
    keeps its spelling, and a name the world lacks fails to resolve."""
    sm03 = smcalflow["sm-03"]
    pred = sm03.programs["pymr"].replace('api.find_person("John")',
                                         'api.find_person(who)').replace(
        "def answer():\n", 'def answer():\n    who = "John"\n')
    assert 'who = "John"' in pred
    assert canonicalize_names(pred, pred, calendar_world) == (pred, pred)
    assert run_program("pymr", pred, "calendar", calendar_world).error == "unknown-person"
    score = scorer("calendar", calendar_world)
    assert score("pymr", pred, "dataflow-simple",
                 sm03.programs["dataflow-simple"]) == "execution-failure"


def test_geo_scorer_keeps_names_and_runs_each_program_once(monkeypatch, geo_model):
    def refuse(*args):
        raise AssertionError("canonicalize_names called")

    runs = []

    def counting_run(dialect, text, environment, env_object):
        runs.append(text)
        return run_program(dialect, text, environment, env_object)

    monkeypatch.setattr(evaluation, "canonicalize_names", refuse)
    monkeypatch.setattr(execute, "run_program", counting_run)
    states, rivers = "answer(count(state(all)))", "answer(count(river(all)))"
    score = scorer("geo", geo_model)
    assert score("funql", states, "funql", states) == "correct"
    assert score("funql", rivers, "funql", states) == "wrong-result"
    assert score("funql", "answer(", "funql", states) == "execution-failure"
    assert runs == [states, rivers, "answer("]
    assert scorer("geo", geo_model)("funql", states, "funql", states) == "correct"
    assert runs == [states, rivers, "answer(", states]  # each scorer has its own memo


def test_a_gold_that_does_not_run_is_a_gold_error_whatever_the_prediction(geo_model):
    score = scorer("geo", geo_model)
    for pred in ("answer(count(state(all)))", "answer(count(state(", "answer(sum(state(all)))"):
        assert score("funql", pred, "funql", "answer(count(state(") == "gold-error", pred
        assert score("funql", pred, "funql", "answer(sum(state(all)))") == "gold-error", pred


def test_renaming_invariance(tmp_path, smcalflow):
    """Consistently renaming a person across programs and world keeps verdicts."""
    rng = random.Random(1)
    base = json.loads(environment_path("calendar").read_text(encoding="utf-8"))
    example = smcalflow["sm-05"]
    for i in range(100):
        new_name = "zz" + "".join(rng.choice("abcdefghij") for _ in range(6))
        world_json = json.loads(json.dumps(base))
        world_json["people"][0]["name"] = new_name
        path = tmp_path / f"w{i}.json"
        path.write_text(json.dumps(world_json), encoding="utf-8")
        world = load_world(path)
        pred, gold = canonicalize_names(example.programs["pymr"],
                                        example.programs["dataflow-simple"], world)
        a = run_program("pymr", pred, "calendar", world)
        b = run_program("dataflow-simple", gold, "calendar", world)
        assert verdict_of(a, b, STATE) == "correct"


APPENDIX_PAIR = ("answer(count(traverse_2(stateid('colorado'))))",
                 "answer(count(river(loc_2(stateid('colorado')))))")


def test_exact_match_rules(geo_model):
    assert exact_match("answer(count(state(all)))", "answer(count(state(all)))")
    assert exact_match("answer( count( state( all ) ) )", "answer(count(state(all)))".replace(
        "(", "( ").replace(")", " )"))
    pred, gold = APPENDIX_PAIR
    assert not exact_match(pred, gold)
    a = exec_funql(parse_funql(pred), geo_model)
    b = exec_funql(parse_funql(gold), geo_model)
    assert compare_denotations(a, b, SET)  # execution accuracy says correct


def test_exact_match_reflexive():
    for text in ("a", "answer(x)", "  spaced   out  "):
        assert exact_match(text, text)


def test_verdicts_and_report():
    ok = Outcome.success(Denotation.of_number(1))
    bad = Outcome.success(Denotation.of_number(2))
    fail = Outcome.failure("name-not-found", "x")
    assert verdict_of(ok, ok, SET) == "correct"
    assert verdict_of(bad, ok, SET) == "wrong-result"
    assert verdict_of(fail, ok, SET) == "execution-failure"
    assert verdict_of(ok, fail, SET) == verdict_of(fail, fail, SET) == "gold-error"
    report = report_from_verdicts(0, [("a", "correct"), ("b", "wrong-result"),
                                      ("c", "execution-failure"), ("d", "correct"),
                                      ("e", "harness-error")])  # counts in n_total only
    assert report.n_total == 5 and report.n_correct == 2 and report.n_execution_failures == 1
    assert report.accuracy == 0.4 and report.exec_failure_rate == 0.2
    gold_fault = report_from_verdicts(0, [*report.verdicts[:4], ("e", "gold-error")])
    assert gold_fault._replace(verdicts=()) == report._replace(verdicts=())
    assert set(report.to_json()) == {"seed", "n_total", "n_correct", "n_execution_failures",
                                     "accuracy", "exec_failure_rate", "verdicts"}


def test_score_run_examples():
    all_correct = report_from_verdicts(0, [("a", "correct")])
    assert score_run([all_correct])["mean_accuracy"] == 1.0
    quarter = report_from_verdicts(0, [("a", "correct"), ("b", "wrong-result"),
                                       ("c", "wrong-result"), ("d", "wrong-result")])
    assert score_run([quarter])["mean_accuracy"] == 0.25


def test_score_run_mean_and_population_stddev():
    def fake(seed, accuracy):
        n = 10
        correct = round(accuracy * n)
        verdicts = [(str(i), "correct" if i < correct else "wrong-result") for i in range(n)]
        return report_from_verdicts(seed, verdicts)

    aggregate = score_run([fake(0, 0.5), fake(1, 0.7), fake(2, 0.6)])
    assert abs(aggregate["mean_accuracy"] - 0.6) < 1e-12
    assert abs(aggregate["stddev_accuracy"] - 0.08164965809277259) < 1e-12


def test_compare_outcomes_requires_both_ok():
    ok = Outcome.success(Denotation.of_number(1))
    fail = Outcome.failure("x", "y")
    assert not compare_outcomes(ok, fail, SET)
    assert not compare_outcomes(fail, ok, SET)


def test_compare_denotations_symmetric_and_reflexive():
    rng = random.Random(8)
    pool = [ents(*rng.choices(["a", "b", "c", "d"], k=rng.randint(0, 4))) for _ in range(30)]
    pool += [Denotation.of_numbers(rng.choices([1, 2, 2.5], k=rng.randint(1, 3)))
             for _ in range(10)]
    for policy in (SET, MULTISET):
        for d in pool:
            assert compare_denotations(d, d, policy)
        for a in pool:
            for b in pool:
                assert compare_denotations(a, b, policy) == compare_denotations(b, a, policy)
