import json
import random

import pytest

from semkit.calendar_world import load_world
from semkit.errors import PoolExhaustedError
from semkit.evaluation import (POLICIES, ComparisonPolicy, canonicalize_names,
                               compare_denotations, compare_outcomes, compare_states,
                               exact_match, report_from_verdicts, score_run, verdict_of)
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


def test_canonicalize_pool_exhausted(calendar_world):
    gold = ("CreateEvent( AND( with_attendee( A ) , with_attendee( B ) , with_attendee( C ) , "
            "with_attendee( D ) , with_attendee( E ) , with_attendee( F ) , "
            "with_attendee( G ) ) )")
    with pytest.raises(PoolExhaustedError):
        canonicalize_names(gold, gold, calendar_world)


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
    report = report_from_verdicts(0, [("a", "correct"), ("b", "wrong-result"),
                                      ("c", "execution-failure"), ("d", "correct"),
                                      ("e", "harness-error")])  # counts in n_total only
    assert report.n_total == 5 and report.n_correct == 2 and report.n_execution_failures == 1
    assert report.accuracy == 0.4 and report.exec_failure_rate == 0.2
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
