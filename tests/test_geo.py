import json
import random

import pytest

from semkit.errors import DataFormatError
from semkit.geo import load_geobase
from semkit.resources import environment_path


def test_bundle_counts(geo_model):
    assert len(geo_model.states) == 8
    assert len(geo_model.cities) == 12
    assert len(geo_model.rivers) == 5
    assert len(geo_model.places) == 10
    assert geo_model.country.name == "usa"


def test_backrefs_resolved(geo_model):
    texas = geo_model.find_state("texas")
    assert texas.capital.name == "austin"
    assert texas.capital.state is texas
    assert all(texas in river.traverses for river in texas.rivers)


def test_lookup_case_insensitive(geo_model):
    assert geo_model.find_state("Texas").name == "texas"
    assert geo_model.find_river("nile") is None


def test_lookup_duplicate_city_names(geo_model):
    hits = geo_model.find_city("springfield")
    assert isinstance(hits, list) and len(hits) == 2
    assert {c.state.abbreviation for c in hits} == {"mo", "co"}


def test_major_city_threshold(geo_model):
    little_rock = geo_model.find_city("little rock")
    topeka = geo_model.find_city("topeka")
    assert little_rock.is_major and not topeka.is_major


def test_size_aliases(geo_model):
    texas = geo_model.find_state("texas")
    assert texas.size == texas.area
    assert texas.capital.size == texas.capital.population
    river = geo_model.find_river("red")
    assert river.size == river.length


def _records(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _write(tmp_path, records):
    path = tmp_path / "geo.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    return path


def test_dangling_city_reference(tmp_path):
    records = _records(environment_path("geo"))
    records.append({"kind": "city", "name": "atlantis", "state": "zz", "population": 1})
    with pytest.raises(DataFormatError, match="unknown state"):
        load_geobase(_write(tmp_path, records))


@pytest.mark.parametrize("line", ['["state"]', '"state"', "7"])
def test_non_object_line_rejected(tmp_path, line):
    path = tmp_path / "geo.jsonl"
    path.write_text('{"kind": "country", "name": "usa"}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as info:
        load_geobase(path)
    assert str(info.value) == f"{path}: line 2: expected a JSON object"


def test_asymmetric_borders_rejected(tmp_path):
    records = _records(environment_path("geo"))
    for rec in records:
        if rec.get("name") == "texas":
            rec["next_to"] = [n for n in rec["next_to"] if n != "oklahoma"]
    with pytest.raises(DataFormatError, match="symmetric"):
        load_geobase(_write(tmp_path, records))


def test_density_must_match_population_over_area(tmp_path):
    records = _records(environment_path("geo"))
    for rec in records:
        if rec.get("name") == "kansas":
            rec["density"] = 999.0
    with pytest.raises(DataFormatError, match="density"):
        load_geobase(_write(tmp_path, records))


def test_high_point_must_be_highest(tmp_path):
    records = _records(environment_path("geo"))
    for rec in records:
        if rec.get("name") == "colorado" and rec["kind"] == "state":
            rec["high_point"] = "arikaree river"  # 1011 m < mount elbert's 4401 m
    with pytest.raises(DataFormatError, match="high point"):
        load_geobase(_write(tmp_path, records))


def test_empty_model_is_valid(tmp_path):
    path = _write(tmp_path, [{"kind": "country", "name": "usa", "area": 0, "population": 0}])
    model = load_geobase(path)
    assert model.states == [] and model.cities == [] and model.rivers == []


def test_load_order_shuffle_preserves_invariants(tmp_path):
    # symmetry and high-point checks hold however the file is ordered
    records = _records(environment_path("geo"))
    for seed in range(5):
        random.Random(seed).shuffle(records)
        model = load_geobase(_write(tmp_path, records))
        for state in model.states:
            for neighbor in state.next_to:
                assert state in neighbor.next_to
            own = [p for p in model.places if p.state is state]
            assert state.high_point.elevation == max(p.elevation for p in own)


@pytest.mark.parametrize("kind, field", [
    ("state", "area"), ("state", "population"), ("state", "density"),
    ("city", "population"), ("place", "elevation"), ("river", "length"),
    ("country", "area"), ("country", "population")])
def test_non_numeric_field_names_path_line_and_field(tmp_path, kind, field):
    records = _records(environment_path("geo"))
    at = next(i for i, rec in enumerate(records) if rec["kind"] == kind)
    records[at][field] = "big"
    path = _write(tmp_path, records)
    with pytest.raises(DataFormatError) as info:
        load_geobase(path)
    label = "whole number" if field == "population" else "number"
    assert str(info.value) == f"{path}: line {at + 1}: field {field!r} is not a {label}: 'big'"


@pytest.mark.parametrize("field, raw, shown", [
    ("area", "NaN", "nan"), ("area", "Infinity", "inf"), ("area", "-Infinity", "-inf"),
    ("area", "1e999", "inf"), ("area", '"nan"', "'nan'"), ("area", '"Infinity"', "'Infinity'"),
    ("area", '"-inf"', "'-inf'"), ("area", "true", "True"), ("density", "NaN", "nan"),
    ("population", "true", "True"), ("population", "false", "False"),
    ("population", "Infinity", "inf")])
def test_boolean_or_non_finite_number_names_the_line_and_field(tmp_path, field, raw, shown):
    records = _records(environment_path("geo"))
    at = _first_state(records)
    records[at][field] = "@"
    path = _write(tmp_path, records)
    path.write_text(path.read_text(encoding="utf-8").replace('"@"', raw), encoding="utf-8")
    with pytest.raises(DataFormatError) as info:
        load_geobase(path)
    label = "whole number" if field == "population" else "number"
    assert str(info.value) == f"{path}: line {at + 1}: field {field!r} is not a {label}: {shown}"


def test_numeric_strings_still_load(tmp_path, geo_model):
    records = _records(environment_path("geo"))
    at = _first_state(records)
    for field in ("area", "population", "density"):
        records[at][field] = str(records[at][field])
    state = load_geobase(_write(tmp_path, records)).find_state(records[at]["name"])
    bundled = geo_model.find_state(records[at]["name"])
    assert (state.area, state.population, state.density) == (
        bundled.area, bundled.population, bundled.density)


def test_execute_on_a_geobase_with_a_bad_field_is_an_error_line(tmp_path, capsys):
    from semkit.cli import main

    records = _records(environment_path("geo"))
    records[0]["area"] = "big"
    program = tmp_path / "p.funql"
    program.write_text("answer(state(all))")
    assert main(["execute", "--env", "geo", "--dialect", "funql", "--program", str(program),
                 "--world", str(_write(tmp_path, records))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "line 1: field 'area'" in captured.err
    assert len(captured.err.splitlines()) == 1


def _first_state(records):
    return next(i for i, rec in enumerate(records) if rec["kind"] == "state")


@pytest.mark.parametrize("field", ["next_to", "capital", "high_point", "low_point"])
def test_state_without_a_reference_field_names_the_line(tmp_path, field):
    records = _records(environment_path("geo"))
    at = _first_state(records)
    del records[at][field]
    path = _write(tmp_path, records)
    with pytest.raises(DataFormatError) as info:
        load_geobase(path)
    assert str(info.value) == f"{path}: line {at + 1}: missing field {field!r}"


@pytest.mark.parametrize("kind, field, value, message", [
    ("state", "next_to", "texas", "is not a list of strings: 'texas'"),
    ("state", "next_to", ["texas", 7], "is not a list of strings: ['texas', 7]"),
    ("state", "next_to", None, "is not a list of strings: None"),
    ("river", "traverses", "texas", "is not a list of strings: 'texas'"),
    ("state", "capital", 3, "is not a string: 3"),
    ("state", "name", ["texas"], "is not a string: ['texas']"),
    ("city", "state", None, "is not a string: None"),
    ("state", "high_point", 1, "is not a string: 1"),
])
def test_name_field_of_the_wrong_type_names_the_line(tmp_path, kind, field, value, message):
    records = _records(environment_path("geo"))
    at = next(i for i, rec in enumerate(records) if rec["kind"] == kind)
    records[at][field] = value
    path = _write(tmp_path, records)
    with pytest.raises(DataFormatError) as info:
        load_geobase(path)
    assert str(info.value) == f"{path}: line {at + 1}: field {field!r} {message}"


def test_execute_on_a_geobase_without_next_to_is_an_error_line(tmp_path, capsys):
    from semkit.cli import main

    records = _records(environment_path("geo"))
    at = _first_state(records)
    del records[at]["next_to"]
    world = _write(tmp_path, records)
    program = tmp_path / "p.funql"
    program.write_text("answer(state(all))")
    assert main(["execute", "--env", "geo", "--dialect", "funql", "--program", str(program),
                 "--world", str(world)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {world}: line {at + 1}: missing field 'next_to'\n"
