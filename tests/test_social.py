import json
import random

import pytest

from semkit.errors import DataFormatError, MrParseError
from semkit.execute import run_program
from semkit.outcomes import Denotation
from semkit.resources import environment_path
from semkit.social import (Sym, desimplify_ldcs, exec_ldcs_simple, extract_operators,
                           load_social_db, parse_ldcs, render_ldcs, simplify_ldcs)

CANON_FULL = ("(call SW.listValue (call SW.filter (call SW.filter (call SW.getProperty "
               "(call SW.singleton en.person) (string !type)) (string gender) (string =) "
               "en.gender.male) (string birthdate) (string =) (date 2004 -1 -1)))")
CANON_SIMPLE = ("(listValue (filter (filter (getProperty en.person !type) "
                 "gender = en.gender.male) birthdate = 2004))")


def heads(node, out=None):
    out = out if out is not None else []
    if isinstance(node, tuple):
        out.append(node[0].text)
        for child in node[1:]:
            heads(child, out)
    return out


def test_parse_full_structure():
    ast = parse_ldcs(CANON_FULL, "full")
    assert ast.dialect == "full"
    assert heads(ast.root).count("call") == 5
    assert ast.root[1] == Sym("SW.listValue")


def test_parse_simple_structure():
    ast = parse_ldcs(CANON_SIMPLE, "simple")
    top = [h for h in heads(ast.root)]
    assert top == ["listValue", "filter", "filter", "getProperty"]


def test_syntax_error():
    with pytest.raises(MrParseError):
        parse_ldcs("(listValue", "simple")


def test_dialect_mismatch_errors():
    with pytest.raises(MrParseError, match="dialect-mismatch"):
        parse_ldcs(CANON_FULL, "simple")
    with pytest.raises(MrParseError, match="dialect-mismatch"):
        parse_ldcs(CANON_SIMPLE, "full")


def test_simplify_canonical_pair_exactly():
    simple = simplify_ldcs(parse_ldcs(CANON_FULL, "full"))
    assert render_ldcs(simple) == CANON_SIMPLE


def test_desimplify_restores_canonical_full():
    simple = simplify_ldcs(parse_ldcs(CANON_FULL, "full"))
    assert render_ldcs(desimplify_ldcs(simple)) == CANON_FULL


def test_single_rule_applications():
    ast = parse_ldcs("(call SW.size (call SW.getProperty (call SW.singleton en.person) "
                     "(string !type)))", "full")
    assert render_ldcs(simplify_ldcs(ast)) == "(size (getProperty en.person !type))"
    back = desimplify_ldcs(parse_ldcs("(size (getProperty en.person !type))", "simple"))
    assert render_ldcs(back) == ("(call SW.size (call SW.getProperty "
                                 "(call SW.singleton en.person) (string !type)))")


def test_year_literal_gets_date_wrapper():
    simple = parse_ldcs("(filter (getProperty en.person !type) birthdate = 2004)", "simple")
    assert "(date 2004 -1 -1)" in render_ldcs(desimplify_ldcs(simple))


def test_number_property_gets_number_wrapper():
    simple = parse_ldcs("(filter (getProperty en.person !type) height > 175)", "simple")
    assert "(number 175)" in render_ldcs(desimplify_ldcs(simple))


def test_unknown_operator_on_desimplify():
    with pytest.raises(MrParseError, match="unknown operator"):
        desimplify_ldcs(parse_ldcs("(teleport en.person.alice)", "simple"))


def test_simplify_rejects_unsupported_typing():
    with pytest.raises(MrParseError, match="unsupported form"):
        simplify_ldcs(parse_ldcs("(call SW.listValue (date 2004 7 15))", "full"))


def test_round_trip_on_all_bundled_programs(overnight):
    for example in overnight.examples:
        full_text = example.programs["ldcs"]
        simple_text = example.programs["ldcs-simple"]
        simple = simplify_ldcs(parse_ldcs(full_text, "full"))
        assert render_ldcs(simple) == simple_text, example.id
        assert render_ldcs(desimplify_ldcs(simple)) == full_text, example.id
        assert len(simple_text) < len(full_text), example.id


def test_execution_unchanged_by_simplification(overnight, social_db):
    for example in overnight.examples:
        via_full = exec_ldcs_simple(
            simplify_ldcs(parse_ldcs(example.programs["ldcs"], "full")), social_db)
        direct = exec_ldcs_simple(
            parse_ldcs(example.programs["ldcs-simple"], "simple"), social_db)
        assert via_full == direct, example.id


def test_exec_canonical_simple(social_db):
    result = exec_ldcs_simple(parse_ldcs(CANON_SIMPLE, "simple"), social_db)
    assert set(result.entities) == {("person", "en.person.bob"), ("person", "en.person.dan")}


def test_exec_direct_lookup(social_db):
    result = exec_ldcs_simple(
        parse_ldcs("(listValue (getProperty en.person.alice height))", "simple"), social_db)
    assert result == Denotation.of_numbers([170])


def test_exec_person_count(social_db):
    result = exec_ldcs_simple(
        parse_ldcs("(listValue (size (getProperty en.person !type)))", "simple"), social_db)
    assert result == Denotation.of_numbers([8])


def test_reverse_property(social_db):
    result = exec_ldcs_simple(
        parse_ldcs("(listValue (getProperty en.gender.male !gender))", "simple"), social_db)
    names = {e[1] for e in result.entities}
    assert names == {"en.person.bob", "en.person.dan", "en.person.frank", "en.person.henry"}


def test_concat_keeps_multiplicity(social_db):
    result = exec_ldcs_simple(
        parse_ldcs("(listValue (concat (getProperty en.person.alice friends) "
                   "(getProperty en.person.dan friends)))", "simple"), social_db)
    assert sorted(result.entities).count(("person", "en.person.bob")) == 2


def test_denotation_invariant_under_person_permutation(tmp_path, social_db, overnight):
    db_json = json.loads(environment_path("social").read_text(encoding="utf-8"))
    programs = [ex.programs["ldcs-simple"] for ex in overnight.examples]
    baseline = [exec_ldcs_simple(parse_ldcs(p, "simple"), social_db) for p in programs]
    for seed in range(3):
        people = list(db_json["people"])
        random.Random(seed).shuffle(people)
        path = tmp_path / f"db{seed}.json"
        path.write_text(json.dumps({"people": people}), encoding="utf-8")
        shuffled_db = load_social_db(path)
        got = [exec_ldcs_simple(parse_ldcs(p, "simple"), shuffled_db) for p in programs]
        assert got == baseline


def test_extract_operators_canonical():
    ast = parse_ldcs(CANON_SIMPLE, "simple")
    assert extract_operators(ast) == frozenset(
        {"listValue", "filter", "getProperty", "!type", "gender", "=", "birthdate"})


def test_extract_operators_empty_program_errors():
    with pytest.raises(MrParseError):
        extract_operators(parse_ldcs("2004", "simple"))


def test_extract_operators_golden(overnight):
    ast = parse_ldcs(overnight["on-16"].programs["ldcs-simple"], "simple")
    assert extract_operators(ast) == frozenset(
        {"listValue", "filter", "getProperty", "!type", "education_start_date", "=",
         "employment_end_date", "person"})


def test_filter_not_equal_means_disjoint(social_db):
    result = exec_ldcs_simple(
        parse_ldcs("(listValue (filter (getProperty en.person !type) "
                   "gender != en.gender.male))", "simple"), social_db)
    names = {e[1] for e in result.entities}
    assert names == {"en.person.alice", "en.person.carol", "en.person.erin",
                     "en.person.grace"}


def test_filter_person_valued_property(social_db):
    result = exec_ldcs_simple(
        parse_ldcs("(listValue (filter (getProperty en.person !type) "
                   "friends = en.person.alice))", "simple"), social_db)
    names = {e[1] for e in result.entities}
    assert names == {"en.person.bob", "en.person.carol", "en.person.erin",
                     "en.person.frank"}


def test_comparison_on_non_numeric_is_type_error(social_db):
    from semkit.errors import MrExecError

    with pytest.raises(MrExecError, match="type-mismatch"):
        exec_ldcs_simple(
            parse_ldcs("(listValue (filter (getProperty en.person !type) "
                       "gender > en.gender.male))", "simple"), social_db)


@pytest.mark.parametrize("program", [
    "(superlative (getProperty en.person !type) argmax 5)",
    "(countSuperlative (getProperty en.person !type) argmax 5)",
    "(countComparative (getProperty en.person !type) 5 > 1)",
    "(countComparative (getProperty en.person !type) (size en.person) > 1)",
])
def test_non_symbol_property_is_type_mismatch(social_db, program):
    outcome = run_program("ldcs-simple", program, "social", social_db)
    assert outcome.error == "type-mismatch", outcome.message


def _db_without_first_id():
    db = json.loads(environment_path("social").read_text(encoding="utf-8"))
    del db["people"][0]["id"]
    return db


@pytest.mark.parametrize("content, message", [
    ([1], "expected a JSON object at the top level"),
    ({}, "missing field 'people'"),
    ({"people": {"p1": {}}}, "'people' must be a list"),
    ({"people": [1]}, "people[0]: expected a JSON object"),
    (_db_without_first_id(), "people[0]: missing field 'id'"),
])
def test_social_db_of_the_wrong_shape_is_a_data_format_error(tmp_path, content, message):
    path = tmp_path / "social.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    with pytest.raises(DataFormatError) as info:
        load_social_db(path)
    assert str(info.value) == f"{path}: {message}"
