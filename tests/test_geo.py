import json
import random

import pytest

from semkit.errors import DataFormatError
from semkit.geo import find_entity, load_geobase
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


def test_find_entity_case_insensitive(geo_model):
    assert find_entity(geo_model, "state", "Texas").name == "texas"
    assert find_entity(geo_model, "river", "nile") is None


def test_find_entity_duplicate_city_names(geo_model):
    hits = find_entity(geo_model, "city", "springfield")
    assert isinstance(hits, list) and len(hits) == 2
    assert {c.state.abbreviation for c in hits} == {"mo", "co"}


def test_major_city_threshold(geo_model):
    little_rock = find_entity(geo_model, "city", "little rock")
    topeka = find_entity(geo_model, "city", "topeka")
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


def test_find_entity_unknown_kind(geo_model):
    with pytest.raises(ValueError, match="kind"):
        find_entity(geo_model, "volcano", "etna")


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
    assert str(info.value) == f"{path}: line {at + 1}: field {field!r} is not a number: 'big'"


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
