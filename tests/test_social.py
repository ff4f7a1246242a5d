import json
import random

import pytest

from semkit.errors import DataFormatError, MrParseError
from semkit.execute import operators_of, run_program
from semkit.outcomes import Denotation
from semkit.resources import environment_path
from semkit.social import (desimplify_ldcs, exec_ldcs_simple, extract_operators, parse_ldcs,
                           render_ldcs, simplify_ldcs)
from semkit.social_db import load_social_db

CANON_FULL = ("(call SW.listValue (call SW.filter (call SW.filter (call SW.getProperty "
               "(call SW.singleton en.person) (string !type)) (string gender) (string =) "
               "en.gender.male) (string birthdate) (string =) (date 2004 -1 -1)))")
CANON_SIMPLE = ("(listValue (filter (filter (getProperty en.person !type) "
                 "gender = en.gender.male) birthdate = 2004))")


def heads(node, out=None):
    out = out if out is not None else []
    if isinstance(node, tuple):
        out.append(node[0])
        for child in node[1:]:
            heads(child, out)
    return out


def test_parse_full_structure():
    tree = parse_ldcs(CANON_FULL, "full")
    assert heads(tree).count("call") == 5
    assert tree[1] == "SW.listValue"


def test_parse_simple_structure():
    top = [h for h in heads(parse_ldcs(CANON_SIMPLE, "simple"))]
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


# a full-dialect program that fails to read, to check or to simplify: the one message
# that both the registry's run and its operator extraction report
FULL_DIALECT_FAILURES = [
    ("(call SW.listValue (call SW.getProperty (call SW.singleton en.person) (string !type))",
     "missing closing parenthesis (at position 0)"),
    ("(call SW.listValue (getProperty (call SW.singleton en.person) (string !type)))",
     "dialect-mismatch: full-dialect head 'getProperty' is not call/typing"),
    ("(call SW.listValue (date 2004 7 15))",
     "unsupported form: only year-granularity (date y -1 -1) dates"),
    # the unsupported wrapper comes first in preorder; the mismatch still wins
    ("(call SW.concat (date 2004 7 15) (size en.person))",
     "dialect-mismatch: full-dialect head 'size' is not call/typing"),
]


@pytest.mark.parametrize("text, message", FULL_DIALECT_FAILURES,
                         ids=[text for text, _ in FULL_DIALECT_FAILURES])
def test_full_dialect_failures_at_the_registry(text, message, social_db):
    outcome = run_program("ldcs", text, "social", social_db)
    assert (outcome.ok, outcome.error, outcome.message) == (False, "parse-error", message)
    with pytest.raises(MrParseError) as info:
        operators_of("ldcs", text)
    assert str(info.value) == message


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


def test_type_of_a_person_is_the_person_type(social_db):
    outcome = run_program("ldcs-simple", "(listValue (getProperty en.person.alice !type))",
                          "social", social_db)
    assert outcome.ok and outcome.value == Denotation.of_entities([("value", "en.person")])


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
    ({"people": [{"id": ["x"]}]}, "people[0]: field 'id' is not a string: ['x']"),
])
def test_social_db_of_the_wrong_shape_is_a_data_format_error(tmp_path, content, message):
    path = tmp_path / "social.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    with pytest.raises(DataFormatError) as info:
        load_social_db(path)
    assert str(info.value) == f"{path}: {message}"


def _db_with(person_edit):
    """The bundled social db with ``person_edit`` applied to alice, its first person."""
    db = json.loads(environment_path("social").read_text(encoding="utf-8"))
    person_edit(db["people"][0])
    return db


@pytest.mark.parametrize("edit, message", [
    (lambda p: p.update(birthdate="x"), "field 'birthdate' is not a whole number: 'x'"),
    (lambda p: p.update(height=None), "field 'height' is not a whole number: None"),
    (lambda p: p.update(birthdate=True), "field 'birthdate' is not a whole number: True"),
    (lambda p: p.update(height=False), "field 'height' is not a whole number: False"),
    (lambda p: p.update(height=float("nan")), "field 'height' is not a whole number: nan"),
    (lambda p: p.update(height=170.9), "field 'height' is not a whole number: 170.9"),
    (lambda p: p["employment"][0].update(start_date=2019.5),
     "field 'employment[0].start_date' is not a whole number: 2019.5"),
    (lambda p: p["education"][0].update(start_date=True),
     "field 'education[0].start_date' is not a whole number: True"),
    (lambda p: p["education"][0].update(start_date="soon"),
     "field 'education[0].start_date' is not a whole number: 'soon'"),
    (lambda p: p["employment"][1].update(end_date=[2020]),
     "field 'employment[1].end_date' is not a whole number: [2020]"),
    (lambda p: p["education"][0].pop("institution"),
     "missing field 'education[0].institution'"),
    (lambda p: p["employment"][0].pop("employer"), "missing field 'employment[0].employer'"),
    (lambda p: p["employment"][1].pop("job_title"), "missing field 'employment[1].job_title'"),
    (lambda p: p["employment"][0].pop("start_date"),
     "missing field 'employment[0].start_date'"),
    (lambda p: p.update(education="brown"), "'education' must be a list"),
    (lambda p: p.update(employment={"employer": "x"}), "'employment' must be a list"),
    (lambda p: p["education"].append("mit"), "education[1]: expected a JSON object"),
    (lambda p: p["employment"].insert(0, None), "employment[0]: expected a JSON object"),
    (lambda p: p.update(is_student="no"), "field 'is_student' is not a boolean: 'no'"),
    (lambda p: p.update(is_student=0), "field 'is_student' is not a boolean: 0"),
    (lambda p: p.update(gender=7), "field 'gender' is not a string: 7"),
    (lambda p: p.pop("name"), "missing field 'name'"),
    (lambda p: p.update(name=None), "field 'name' is not a string: None"),
    (lambda p: p.update(friends="abc"), "field 'friends' is not a list of strings: 'abc'"),
    (lambda p: p.update(friends=["en.person.bob", 2]),
     "field 'friends' is not a list of strings: ['en.person.bob', 2]"),
])
def test_social_db_field_of_the_wrong_type_names_path_person_and_field(tmp_path, edit,
                                                                       message):
    path = tmp_path / "social.json"
    path.write_text(json.dumps(_db_with(edit)), encoding="utf-8")
    with pytest.raises(DataFormatError) as info:
        load_social_db(path)
    assert str(info.value) == f"{path}: en.person.alice: {message}"


def test_social_db_without_history_lists_loads(tmp_path, social_db):
    def drop_history(person):
        del person["education"], person["employment"]

    path = tmp_path / "social.json"
    path.write_text(json.dumps(_db_with(drop_history)), encoding="utf-8")
    alice = load_social_db(path).people[0]
    assert alice.education == [] and alice.employment == []
    assert alice.birthdate == social_db.people[0].birthdate


@pytest.mark.parametrize("height, birthdate", [("170", "1990"), (170.0, 1990.0)])
def test_social_db_with_numeric_strings_loads(tmp_path, height, birthdate):
    path = tmp_path / "social.json"
    path.write_text(json.dumps(_db_with(lambda p: p.update(height=height, birthdate=birthdate))),
                    encoding="utf-8")
    alice = load_social_db(path).people[0]
    assert (alice.height, alice.birthdate) == (170, 1990)
    assert type(alice.height) is int and type(alice.birthdate) is int


def test_execute_on_a_social_db_with_a_bad_birthdate_is_an_error_line(tmp_path, capsys):
    from semkit.cli import main

    world = tmp_path / "social.json"
    world.write_text(json.dumps(_db_with(lambda p: p.update(birthdate="x"))), encoding="utf-8")
    program = tmp_path / "p.ldcs"
    program.write_text("(listValue (getProperty en.person !type))")
    assert main(["execute", "--env", "social", "--dialect", "ldcs-simple",
                 "--program", str(program), "--world", str(world)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {world}: en.person.alice: field 'birthdate' "
                            f"is not a whole number: 'x'\n")
