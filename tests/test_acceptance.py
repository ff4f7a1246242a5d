"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 10 (whole-suite wall time under 60 s) is reported by the session
summary hook in conftest.py; the guard test here additionally checks the
elapsed time at the end of this module.
"""

import json
import random
import time

from conftest import record_acceptance, session_elapsed
from oracles import (GEO_ORACLES, SOCIAL_ORACLES, denotation_matches, load_raw_geo,
                     load_raw_social)
from test_selection import naive_bm25_scores, random_texts, reference_greedy

from semkit import social
from semkit.cli import main as cli_main
from semkit.evaluation import (POLICIES, ComparisonPolicy, canonicalize_names,
                               compare_denotations, compare_states, exact_match, verdict_of)
from semkit.execute import operators_of, run_program
from semkit.funql import exec_funql, parse_funql
from semkit.outcomes import CreatedEvent, Denotation, WorldDelta
from semkit.resources import data_path, environment_path
from semkit.selection import Bm25Index, bm25_rank, coverage_fraction, greedy_select

CANON_LDCS_FULL = ("(call SW.listValue (call SW.filter (call SW.filter (call SW.getProperty "
                    "(call SW.singleton en.person) (string !type)) (string gender) (string =) "
                    "en.gender.male) (string birthdate) (string =) (date 2004 -1 -1)))")
CANON_LDCS_SIMPLE = ("(listValue (filter (filter (getProperty en.person !type) "
                      "gender = en.gender.male) birthdate = 2004))")

FROZEN_SEED_ACCURACIES = [0.8, 0.7, 0.9]
FROZEN_MEAN_ACCURACY = (0.8 + 0.7 + 0.9) / 3
FROZEN_COVERAGE_FRACTION = 0.725


def test_c1_canonical_pair_simplification_fidelity():
    started = time.monotonic()
    full_ast = social.parse_ldcs(CANON_FULL_NORMALIZED, "full")
    simple = social.simplify_ldcs(full_ast)
    assert social.render_ldcs(simple) == CANON_LDCS_SIMPLE
    assert social.render_ldcs(social.desimplify_ldcs(simple)) == CANON_LDCS_FULL
    assert time.monotonic() - started < 1.0
    record_acceptance(1, "canonical full/simple pair simplify/desimplify fidelity")


CANON_FULL_NORMALIZED = " ".join(CANON_LDCS_FULL.split())


def test_c2_cross_dialect_oracle_equality(geoquery, overnight, smcalflow,
                                          geo_model, social_db, calendar_world):
    started = time.monotonic()
    assert len(geoquery.examples) >= 50
    assert len(overnight.examples) >= 20
    assert len(smcalflow.examples) >= 20

    for example in geoquery.examples:
        gold = run_program("funql", example.programs["funql"], "geo", geo_model)
        pred = run_program("pymr", example.programs["pymr"], "geo", geo_model)
        assert gold.ok and pred.ok, example.id
        assert verdict_of(pred, gold, POLICIES["geo"]) == "correct", example.id

    for example in overnight.examples:
        gold = run_program("ldcs", example.programs["ldcs"], "social", social_db)
        simple = run_program("ldcs-simple", example.programs["ldcs-simple"],
                             "social", social_db)
        pred = run_program("pymr", example.programs["pymr"], "social", social_db)
        assert gold.ok and simple.ok and pred.ok, example.id
        assert verdict_of(pred, gold, POLICIES["social"]) == "correct", example.id
        assert verdict_of(simple, gold, POLICIES["social"]) == "correct", example.id

    for example in smcalflow.examples:
        pred_text, gold_text = canonicalize_names(
            example.programs["pymr"], example.programs["dataflow-simple"], calendar_world)
        gold = run_program("dataflow-simple", gold_text, "calendar", calendar_world)
        pred = run_program("pymr", pred_text, "calendar", calendar_world)
        assert gold.ok and pred.ok, example.id
        assert verdict_of(pred, gold, POLICIES["calendar"]) == "correct", example.id

    assert time.monotonic() - started < 10.0
    record_acceptance(2, "cross-dialect execution equality on all bundled examples")


def test_c3_brute_force_denotation_oracles(geoquery, overnight, geo_model, social_db):
    raw_geo = load_raw_geo(environment_path("geo"))
    for example in geoquery.examples:
        denotation = exec_funql(parse_funql(example.programs["funql"]), geo_model)
        assert denotation_matches(denotation, GEO_ORACLES[example.id](raw_geo)), example.id
    raw_social = load_raw_social(environment_path("social"))
    for example in overnight.examples:
        ast = social.parse_ldcs(example.programs["ldcs-simple"], "simple")
        denotation = social.exec_ldcs_simple(ast, social_db)
        assert denotation_matches(denotation, SOCIAL_ORACLES[example.id](raw_social),
                                  multiset=True), example.id
    record_acceptance(3, "brute-force oracle equality (geo + social, 100%)")


def test_c4_simplification_magnitude(overnight):
    reductions = []
    for example in overnight.examples:
        full_text = example.programs["ldcs"]
        simple_text = social.render_ldcs(
            social.simplify_ldcs(social.parse_ldcs(full_text, "full")))
        reductions.append(1.0 - len(simple_text) / len(full_text))
    mean = sum(reductions) / len(reductions)
    assert mean >= 0.35, mean
    record_acceptance(4, f"mean simplification length reduction {mean:.1%} (>= 35%)")


def test_c5_greedy_algorithm_fidelity(geoquery, geoquery_split):
    rng = random.Random(2024)
    for _ in range(100):
        n = rng.randint(2, 12)
        operators = [f"op{i}" for i in range(rng.randint(1, 10))]
        pool = [(f"c{i:02d}", frozenset(rng.sample(operators,
                                                   rng.randint(0, len(operators)))))
                for i in range(n)]
        structures = frozenset(operators)
        k = rng.randint(1, n)
        assert greedy_select(pool, structures, k) == \
            reference_greedy(pool, structures, k)

    pool = [(ex_id, operators_of("funql", geoquery[ex_id].programs["funql"]))
            for ex_id in geoquery_split.train_ids]
    structures = frozenset().union(*(s for _, s in pool))
    selected = greedy_select(pool, structures, 10)
    sets = dict(pool)
    fraction = coverage_fraction([sets[i] for i in selected], structures)
    assert abs(fraction - FROZEN_COVERAGE_FRACTION) < 1e-12
    record_acceptance(
        5, f"greedy cover matches reference; bundle k=10 coverage {fraction:.1%}")


def test_c6_bm25_equals_naive_scoring():
    rng = random.Random(99)
    for _ in range(1000):
        pool = random_texts(rng, rng.randint(1, 10))
        query = " ".join(rng.choices(
            ["river", "texas", "state", "longest", "border", "zzz"], k=rng.randint(0, 5)))
        scores = naive_bm25_scores(query, pool)
        expected = [doc_id for doc_id, _ in sorted(
            zip([p[0] for p in pool], scores), key=lambda t: (-t[1], t[0]))]
        assert bm25_rank(query, Bm25Index(pool), len(pool)) == expected
    record_acceptance(6, "BM25 ranking equals naive scoring on 1000 random instances")


def test_c7_evaluation_rule_properties(geo_model, calendar_world, smcalflow, tmp_path):
    rng = random.Random(4)
    names = [("city", f"c{i}") for i in range(12)]
    multiset_policy = ComparisonPolicy(mode="denotation-multiset")
    for _ in range(500):
        shuffled = list(names)
        rng.shuffle(shuffled)
        assert compare_denotations(Denotation.of_entities(shuffled),
                                   Denotation.of_entities(names), multiset_policy)

    state_policy = POLICIES["calendar"]
    base = dict(start="2023-01-02T09:00:00", end="2023-01-02T09:30:00",
                attendees=frozenset({"p1"}), avoided=frozenset())
    assert compare_states(WorldDelta((CreatedEvent(subject="A", **base),)),
                          WorldDelta((CreatedEvent(subject="B", **base),)))

    from semkit.calendar_world import load_world
    world_json = json.loads(environment_path("calendar").read_text())
    example = smcalflow["sm-16"]
    for i in range(100):
        renamed = json.loads(json.dumps(world_json))
        renamed["people"][0]["name"] = "name" + "".join(
            rng.choice("abcdefgh") for _ in range(5))
        path = tmp_path / f"world{i}.json"
        path.write_text(json.dumps(renamed))
        world = load_world(path)
        pred_text, gold_text = canonicalize_names(
            example.programs["pymr"], example.programs["dataflow-simple"], world)
        pred = run_program("pymr", pred_text, "calendar", world)
        gold = run_program("dataflow-simple", gold_text, "calendar", world)
        assert verdict_of(pred, gold, state_policy) == "correct"

    pred_text = "answer(count(traverse_2(stateid('colorado'))))"
    gold_text = "answer(count(river(loc_2(stateid('colorado')))))"
    assert not exact_match(pred_text, gold_text)
    pred = exec_funql(parse_funql(pred_text), geo_model)
    gold = exec_funql(parse_funql(gold_text), geo_model)
    assert compare_denotations(pred, gold, POLICIES["geo"])
    record_acceptance(7, "comparison properties (permutation, subject, renaming, "
                         "exact-match vs execution)")


def test_c8_next_dow_lands_within_week():
    import datetime as dt

    from semkit.calendar_world import DateTimeClause, resolve_datetime

    rng = random.Random(17)
    days = ["monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday"]
    checked = 0
    for _ in range(10):
        anchor = dt.datetime(2022, 6, 1) + dt.timedelta(
            days=rng.randrange(500), hours=rng.randrange(24), minutes=rng.randrange(60))
        for index, day in enumerate(days):
            start, _ = resolve_datetime([DateTimeClause.get_next_dow(day)], anchor)
            assert start.weekday() == index
            assert anchor.date() < start.date() <= anchor.date() + dt.timedelta(days=7)
            checked += 1
    assert checked == 70
    record_acceptance(8, "NextDOW lands in (now, now+7d] with the right weekday (70/70)")


def test_c9_end_to_end_replay_determinism(tmp_path, capsys):
    started = time.monotonic()
    results = []
    for run_dir in (tmp_path / "first", tmp_path / "second"):
        code = cli_main(["run", "--config", str(data_path("experiment_replay.json")),
                         "--output-dir", str(run_dir)])
        out = capsys.readouterr().out
        assert code == 0
        results.append(json.loads(out))
    assert results[0] == results[1]
    assert results[0]["accuracies"] == FROZEN_SEED_ACCURACIES
    assert results[0]["mean_accuracy"] == FROZEN_MEAN_ACCURACY
    for name in ("aggregate.csv", "aggregate.json", "report_seed0.csv",
                 "report_seed1.csv", "report_seed2.csv"):
        first = (tmp_path / "first" / name).read_bytes()
        second = (tmp_path / "second" / name).read_bytes()
        assert first == second, name
    assert time.monotonic() - started < 30.0
    record_acceptance(9, "offline replay run, byte-identical twice, frozen accuracy")


def test_c10_elapsed_time_guard():
    # the authoritative line is printed by the session hook; guard here too
    assert session_elapsed() < 60.0
