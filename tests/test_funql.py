import json
import random

import pytest

from semkit.errors import MrExecError, MrParseError
from semkit.execute import run_program
from semkit.funql import (ALL, Apply, EntityLiteral, exec_funql, extract_operators,
                          parse_funql, render_funql)
from semkit.geo import load_geobase
from semkit.outcomes import Denotation
from semkit.resources import environment_path

SHOWCASE = "answer(elevation_1(highest(place(loc_2(largest(state(all)))))))"


def test_parse_count_states():
    ast = parse_funql("answer(count(state(all)))")
    assert ast == Apply("answer", (Apply("count", (Apply("state", ("all",)),)),))


def test_parse_showcase_shape_and_depth():
    ast = parse_funql(SHOWCASE)
    ops = []
    node = ast
    while isinstance(node, Apply):
        ops.append(node.op)
        node = node.args[0]
    assert ops == ["answer", "elevation_1", "highest", "place", "loc_2", "largest", "state"]
    assert node == ALL == "all"


def test_unbalanced_parens_error_at_end():
    with pytest.raises(MrParseError, match="end of input"):
        parse_funql("answer(largest(state(all))")


def test_unknown_operator_and_arity_errors():
    with pytest.raises(MrParseError, match="unknown operator"):
        parse_funql("answer(frobnicate(all))")
    with pytest.raises(MrParseError, match="argument"):
        parse_funql("answer(exclude(state(all)))")


def test_root_must_be_answer():
    with pytest.raises(MrParseError, match="answer"):
        parse_funql("count(state(all))")


@pytest.mark.parametrize("text", [
    "answer(count(state(all)))",
    SHOWCASE,
    "answer(population_1(cityid('springfield', 'mo')))",
])
def test_render_round_trip(text):
    ast = parse_funql(text)
    assert parse_funql(render_funql(ast)) == ast
    assert render_funql(parse_funql(render_funql(ast))) == render_funql(ast)


def _random_ast(rng, depth=0):
    if depth > 3 or rng.random() < 0.3:
        return rng.choice([
            Apply("state", ("all",)),
            Apply("city", (ALL,)),
            EntityLiteral("stateid", "texas"),
            EntityLiteral("cityid", "austin", "tx"),
            EntityLiteral("riverid", "rio grande"),
        ])
    op = rng.choice(["largest", "smallest", "loc_2", "loc_1", "next_to_2", "state",
                     "city", "major", "capital"])
    return Apply(op, (_random_ast(rng, depth + 1),))


def test_parse_render_identity_on_random_asts():
    rng = random.Random(0)
    for _ in range(200):
        ast = Apply("answer", (_random_ast(rng),))
        assert parse_funql(render_funql(ast)) == ast


def test_exec_count_states(geo_model):
    assert exec_funql(parse_funql("answer(count(state(all)))"), geo_model) == \
        Denotation.of_numbers([8], "count")


def test_exec_showcase(geo_model):
    result = exec_funql(parse_funql(SHOWCASE), geo_model)
    assert result.kind == "number" and result.values == (2667.0,)


def test_exec_most_major_cities(geo_model):
    result = exec_funql(parse_funql("answer(most(state(loc_1(major(city(all))))))"), geo_model)
    assert result.entities == (("state", "texas"),)


def test_empty_superlative_is_empty_not_crash(geo_model):
    result = exec_funql(parse_funql("answer(largest(lake(all)))"), geo_model)
    assert result == Denotation.of_entities([])


def test_type_error_is_raised(geo_model):
    with pytest.raises(MrExecError, match="type-mismatch"):
        exec_funql(parse_funql("answer(highest(count(state(all))))"), geo_model)


@pytest.mark.parametrize("text,located", [
    ("answer(loc_1(riverid('red')))",  # the states a river traverses, and the country
     [("country", "usa"), ("state", "louisiana"), ("state", "oklahoma"), ("state", "texas")]),
    ("answer(loc_1(stateid('texas')))", [("country", "usa")]),
])
def test_loc_1_of_a_river_and_of_a_state(geo_model, text, located):
    outcome = run_program("funql", text, "geo", geo_model)
    assert outcome.ok and outcome.value == Denotation.of_entities(located)


def test_unknown_entity_is_empty(geo_model):
    result = exec_funql(parse_funql("answer(stateid('narnia'))"), geo_model)
    assert result == Denotation.of_entities([])


def _geo_records():
    text = environment_path("geo").read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines()]


def test_superlative_returns_all_ties(tmp_path):
    records = _geo_records()
    for rec in records:
        if rec.get("name") == "arkansas" and rec["kind"] == "state":
            rec["area"] = 135659  # equal to louisiana
            rec["density"] = round(rec["population"] / 135659, 4)
    path = tmp_path / "geo.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    model = load_geobase(path)
    result = exec_funql(parse_funql("answer(smallest(state(all)))"), model)
    assert set(result.entities) == {("state", "arkansas"), ("state", "louisiana")}


def test_result_invariant_under_model_permutation(tmp_path, geo_model):
    records = _geo_records()
    programs = [SHOWCASE, "answer(most(state(loc_1(major(city(all))))))",
                "answer(longest(river(all)))"]
    baseline = [exec_funql(parse_funql(p), geo_model) for p in programs]
    for seed in range(3):
        shuffled = list(records)
        random.Random(seed).shuffle(shuffled)
        path = tmp_path / f"geo{seed}.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in shuffled) + "\n", encoding="utf-8")
        model = load_geobase(path)
        assert [exec_funql(parse_funql(p), model) for p in programs] == baseline


def test_most_matches_per_pivot_brute_force(geo_model):
    result = exec_funql(parse_funql("answer(most(river(traverse_2(state(all)))))"), geo_model)
    counts = {river.name: len(river.traverses) for river in geo_model.rivers}
    best = max(counts.values())
    assert set(result.entities) == {("river", n) for n, c in counts.items() if c == best}


def test_extract_operators():
    assert extract_operators(parse_funql("answer(count(state(all)))")) == \
        frozenset({"count", "state", "all"})
    assert extract_operators(parse_funql(SHOWCASE)) == \
        frozenset({"elevation_1", "highest", "place", "loc_2", "largest", "state", "all"})
    assert extract_operators(parse_funql("answer(stateid('texas'))")) == frozenset({"stateid"})
