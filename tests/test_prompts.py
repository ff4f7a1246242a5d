import hashlib
import json
import re

import pytest

from semkit.errors import DataFormatError, SemkitError
from semkit.prompts import build_prompt, dd_names, default_template, load_dd_source, render_dd
from semkit.pymr import binding_names
from semkit.resources import data_path, dd_path

METHOD = [{"kind": "class", "name": "GeoModel"},
          {"kind": "method", "parent": "GeoModel", "name": "find_state",
           "params": [{"name": "name", "type": "str"}], "returns": "State"}]

# frozen digests of deterministic renderings (see test_golden_prompt_snapshot)
GOLDEN_PROMPT_SHA256 = "a3ab7991c64ebb20508a21fe1bf2a2532054ef7341d04c9ae36f384de6d51ab3"
GOLDEN_PROMPT_TOKENS = 150


def test_render_variants_for_a_method():
    full = render_dd(METHOD, "full")
    assert "def find_state(name: str) -> State: ..." in full
    untyped = render_dd(METHOD, "no-typing")
    assert "def find_state(name): ..." in untyped
    assert "str" not in untyped and "State" not in untyped.replace("GeoModel", "")
    listing = render_dd(METHOD, "operator-list")
    assert listing.splitlines() == ["GeoModel", "find_state"]
    assert render_dd(METHOD, "none") == ""


def test_render_empty_source():
    assert render_dd([], "full") == ""


@pytest.mark.parametrize("environment,dialect", [
    ("geo", "pymr"), ("social", "pymr"), ("calendar", "pymr")])
def test_operator_list_matches_binding_closure(request, environment, dialect):
    """The full DD declares exactly what a program can reach, in both directions."""
    declarations = load_dd_source(dd_path(environment, dialect))
    listed = set(render_dd(declarations, "operator-list").splitlines())
    world = {"geo": "geo_model", "social": "social_db", "calendar": "calendar_world"}[environment]
    assert listed == set(binding_names(environment, request.getfixturevalue(world)))
    assert listed == set(dd_names(declarations))


@pytest.mark.parametrize("declarations,message", [
    ([1], "declarations[0]: expected a JSON object"),
    ({"kind": "class"}, "expected a JSON list of declarations"),
    ([{"kind": "class"}], "declarations[0]: missing field 'name'"),
    ([{"kind": "class", "name": 3}], "declarations[0]: field 'name' is not a string: 3"),
    ([METHOD[0], {"name": "f"}], "declarations[1]: missing field 'kind'"),
    ([{"kind": 1, "name": "f"}], "declarations[0]: field 'kind' is not a string: 1"),
    ([{"kind": "function", "name": "f"}], "declarations[0]: bad declaration kind 'function'"),
    ([{**METHOD[1], "parent": ["GeoModel"]}],
     "declarations[0]: field 'parent' is not a string: ['GeoModel']"),
    (METHOD + [METHOD[1]], "declarations[2]: duplicate declaration ('GeoModel', 'find_state')"),
    ([], "a DD source declares nothing"),
    ([{"kind": "operator", "name": ""}], "declarations[0]: empty name"),
])
def test_malformed_dd_source_is_a_data_format_error(tmp_path, declarations, message):
    path = tmp_path / "dd.json"
    path.write_text(json.dumps(declarations), encoding="utf-8")
    with pytest.raises(DataFormatError) as info:
        load_dd_source(path)
    assert str(info.value) == f"{path}: {message}"


def test_dd_source_that_is_not_json_is_a_data_format_error(tmp_path):
    path = tmp_path / "dd.json"
    path.write_text("[{", encoding="utf-8")
    with pytest.raises(DataFormatError, match="not valid JSON"):
        load_dd_source(path)


def test_no_typing_keeps_every_operator_name():
    declarations = load_dd_source(dd_path("geo", "pymr"))
    untyped = render_dd(declarations, "no-typing")
    for name in render_dd(declarations, "operator-list").splitlines():
        assert name in untyped
    for annotation in (": str", ": int", ": float", "-> State", "List["):
        assert annotation not in untyped


# the bundled pairs whose no-typing DD is the full DD, byte for byte: their DSL
# declarations carry no type annotation to strip (see README, "Domain descriptions")
UNTYPED_DD_IS_FULL = {("geo", "funql"): True, ("geo", "pymr"): False,
                      ("social", "ldcs"): True, ("social", "ldcs-simple"): True,
                      ("social", "pymr"): False, ("calendar", "dataflow-simple"): True,
                      ("calendar", "pymr"): False}


def test_which_bundled_no_typing_dds_equal_their_full_dds():
    assert sorted(dd_path(*pair) for pair in UNTYPED_DD_IS_FULL) == \
        sorted(data_path("dd").iterdir())
    for pair, same in UNTYPED_DD_IS_FULL.items():
        declarations = load_dd_source(dd_path(*pair))
        assert (render_dd(declarations, "no-typing") == render_dd(declarations, "full")) == same, \
            pair


def build(dd_text="DDTEXT", demos=(("q1", "s1"),), test="qt", template=None):
    return build_prompt(template or default_template(), dd_text, tuple(demos), test)


def test_prompt_without_dd_drops_header_lines():
    text = build(dd_text="")
    assert text.splitlines()[0] == "query: q1"
    assert "description of the domain" not in text


def test_prompt_with_dd_and_zero_demos():
    text = build(demos=())
    assert "DDTEXT" in text
    assert "query: qt" in text
    assert "q1" not in text


def test_prompt_demo_and_test_slots():
    text = build(demos=(("first q", "first s"), ("second q", "second s")))
    assert text.index("first q") < text.index("first s") < text.index("second q")
    assert text.rstrip().endswith("solution:")
    assert "query: qt" in text


def test_empty_spec_rejected():
    with pytest.raises(SemkitError):
        build(dd_text="", demos=())


@pytest.mark.parametrize("marker", ["[DD]", "[query-i]", "[solution-i]", "[query-test]"])
@pytest.mark.parametrize("field", ["utterance", "program", "dd_text", "test"])
def test_data_text_holding_a_slot_marker_goes_in_as_it_is(field, marker):
    def prompt(value):
        demo = (value if field == "utterance" else "q1", value if field == "program" else "s1")
        return build(dd_text=value if field == "dd_text" else "DDTEXT",
                     demos=(demo, ("q2", "s2")), test=value if field == "test" else "qt")
    value = f"what is {marker} here"
    assert prompt(value) == prompt("PLACEHOLDER").replace("PLACEHOLDER", value)


def test_prompt_injective_in_demo_order():
    a = build(demos=(("q1", "s1"), ("q2", "s2")))
    b = build(demos=(("q2", "s2"), ("q1", "s1")))
    assert a != b


def test_prompt_length_monotone_in_k(geoquery):
    demos = [(ex.utterance, ex.programs["pymr"]) for ex in geoquery.examples[:6]]
    lengths = [len(build(demos=tuple(demos[:k]))) for k in range(1, 7)]
    assert lengths == sorted(lengths)


def golden_prompt(geoquery):
    declarations = load_dd_source(dd_path("geo", "pymr"))
    demos = tuple((ex.utterance, ex.programs["pymr"]) for ex in geoquery.examples[:2])
    return build_prompt(default_template(), render_dd(declarations, "full"), demos,
                        "what is the longest river ?")


def test_golden_prompt_snapshot(geoquery):
    text = golden_prompt(geoquery)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_PROMPT_SHA256
    assert len(text.split()) == GOLDEN_PROMPT_TOKENS


def test_template_resource_loads():
    template = default_template()
    for slot in ("[DD]", "[query-i]", "[solution-i]", "[query-test]"):
        assert slot in template


TEMPLATE = "Intro\n[DD]\n\nQ: [query-i]\nA: [solution-i]\n\nQ: [query-test]\nA:"


def test_a_template_of_the_bundled_shape_is_filled_by_concatenation():
    assert build(demos=(("q1", "s1"), ("q2", "s2")), template=TEMPLATE) == \
        "Intro\nDDTEXT\n\nQ: q1\nA: s1\n\nQ: q2\nA: s2\n\nQ: qt\nA:"
    assert build(dd_text="", template=TEMPLATE) == "Q: q1\nA: s1\n\nQ: qt\nA:"
    assert build(demos=(), template=TEMPLATE) == "Intro\nDDTEXT\n\nQ: qt\nA:"


@pytest.mark.parametrize("template", [
    *(TEMPLATE.replace(slot, "x")
      for slot in ("[DD]", "[query-i]", "[solution-i]", "[query-test]")),
    "Q: [query-i]\nA: [solution-i]\n\n[DD]\n\nQ: [query-test]\nA:",
    "Intro\n[DD] Q: [query-i]\nA: [solution-i]\n\nQ: [query-test]\nA:",
    "Intro\n[DD]\n\nA: [solution-i]\nQ: [query-i]\n\nQ: [query-test]\nA:",
    TEMPLATE.replace("A: [solution-i]", "A: [solution-i] [query-i]"),
    "Intro\n[DD]\n\nNote\n\nQ: [query-i]\nA: [solution-i]\n\nQ: [query-test]\nA:",
], ids=["no [DD]", "no [query-i]", "no [solution-i]", "no [query-test]",
        "DD after the demo block", "demo block on the DD line", "solution first",
        "a slot twice", "four paragraphs"])
def test_a_template_of_any_other_shape_is_one_error(template):
    with pytest.raises(SemkitError, match=re.escape("prompt template must be three paragraphs")):
        build(template=template)
