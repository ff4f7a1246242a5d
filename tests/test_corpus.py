import json

import pytest

from semkit.corpus import (Dataset, Example, Lcg, load_dataset, load_split, sample_demos,
                           save_dataset)
from semkit.errors import DataFormatError, PoolExhaustedError
from semkit.experiment import DemoSelector
from semkit.resources import dataset_path

GOLDEN_DEMO_IDS_K10_SEED0 = ["gq-03", "gq-41", "gq-08", "gq-48", "gq-43",
                             "gq-06", "gq-26", "gq-16", "gq-07", "gq-32"]


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


def record(i, dialect="funql"):
    return {"id": f"x-{i}", "utterance": f"utterance {i}",
            "programs": {dialect: "answer(count(state(all)))"}, "tags": []}


def test_load_preserves_order_and_ids(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [record(3), record(1), record(2)])
    dataset = load_dataset(path)
    assert [ex.id for ex in dataset.examples] == ["x-3", "x-1", "x-2"]
    assert dataset.dialects == ("funql",)


def test_duplicate_id_is_named(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [dict(record(7), id="geo-7"), dict(record(8), id="geo-7")])
    with pytest.raises(DataFormatError, match="geo-7"):
        load_dataset(path)


def test_unknown_dialect_rejected(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"id": "a", "utterance": "u", "programs": {"sql": "SELECT 1"}}])
    with pytest.raises(DataFormatError, match="sql"):
        load_dataset(path)


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(record(1)) + "\n{broken\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 2"):
        load_dataset(path)


@pytest.mark.parametrize("line,message", [
    ("[1, 2]", "expected a JSON object"),
    ('"x-9"', "expected a JSON object"),
    ("null", "expected a JSON object"),
    (json.dumps(dict(record(9), id=9)), "field 'id' is not a string: 9"),
    (json.dumps(dict(record(9), id=["x-9"])), "field 'id' is not a string: ['x-9']"),
    (json.dumps(dict(record(9), utterance=None)), "field 'utterance' is not a string: None"),
    (json.dumps(dict(record(9), programs=["funql"])),
     "field 'programs' is not a JSON object: ['funql']"),
    (json.dumps(dict(record(9), programs="funql")),
     "field 'programs' is not a JSON object: 'funql'"),
    (json.dumps(dict(record(9), programs={"funql": 1})),
     "field 'programs.funql' is not a string: 1"),
    (json.dumps(dict(record(9), programs={"pymr": ["def answer(): ..."]})),
     "field 'programs.pymr' is not a string: ['def answer(): ...']"),
    (json.dumps(dict(record(9), tags="abc")), "field 'tags' is not a list of strings: 'abc'"),
    (json.dumps(dict(record(9), tags=["domain:geo", 1])),
     "field 'tags' is not a list of strings: ['domain:geo', 1]"),
    (json.dumps(dict(record(9), tags=None)), "field 'tags' is not a list of strings: None"),
    (json.dumps(dict(record(9), tags={"domain": "geo"})),
     "field 'tags' is not a list of strings: {'domain': 'geo'}"),
    (json.dumps({"utterance": "u", "programs": {}, "tags": []}), "missing field 'id'"),
    (json.dumps({"id": "x-9", "programs": {}, "tags": []}), "missing field 'utterance'"),
    (json.dumps({"id": "x-9", "utterance": "u", "tags": []}), "missing field 'programs'"),
    (json.dumps(dict(record(9), id="x-1")), "duplicate id 'x-1'"),
    (json.dumps(dict(record(9), programs={"funql": "answer(1)", "sql": "SELECT 1"})),
     "unknown dialect 'sql' (known: funql, ldcs, ldcs-simple, dataflow-simple, pymr)"),
    (json.dumps(dict(record(9), programs={"sql": 1})),
     "unknown dialect 'sql' (known: funql, ldcs, ldcs-simple, dataflow-simple, pymr)"),
    (json.dumps(dict(record(9), programs={"pymr": None, "sql": "SELECT 1"})),
     "field 'programs.pymr' is not a string: None"),
])
def test_malformed_record_is_a_data_format_error(tmp_path, line, message):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(record(1)) + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as info:
        load_dataset(path)
    assert str(info.value) == f"{path}: line 2: {message}"


def test_loaded_examples_equal_constructed_ones(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [record(1), dict(record(2), tags=["b", "a", "b"])])
    dataset = load_dataset(path)
    want = (Example("x-1", "utterance 1", {"funql": "answer(count(state(all)))"}),
            Example("x-2", "utterance 2", {"funql": "answer(count(state(all)))"},
                    frozenset({"a", "b"})))
    assert dataset.examples == want
    assert dataset.by_id == {ex.id: ex for ex in want}
    assert dataset == Dataset(name=dataset.name, dialects=("funql",), examples=want)


def test_example_is_frozen_and_replaceable():
    example = Example("x-1", "u", {"funql": "answer(1)"}, frozenset({"t"}))
    with pytest.raises(AttributeError):
        example.utterance = "v"
    with pytest.raises(AttributeError):
        del example.tags
    with pytest.raises(AttributeError):
        example.other = 1
    assert not hasattr(example, "other")
    changed = example._replace(programs={"pymr": "x"})
    assert changed == Example("x-1", "u", {"pymr": "x"}, frozenset({"t"}))
    assert example.programs == {"funql": "answer(1)"}


def test_dataset_built_from_examples_maps_their_ids():
    examples = (Example("b", "u", {}), Example("a", "v", {}), Example("b", "w", {}))
    dataset = Dataset(name="d", dialects=(), examples=examples)
    assert dataset.by_id == {"b": examples[2], "a": examples[1]}  # a later example wins
    assert "a" in dataset and "c" not in dataset and dataset["b"] is examples[2]
    with pytest.raises(TypeError):  # the map is always derived from the examples
        Dataset(name="d", dialects=(), examples=examples, by_id={})


def test_missing_tags_load_as_no_tags(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"id": "a", "utterance": "u", "programs": {"funql": "answer(1)"}}])
    assert load_dataset(path)["a"].tags == frozenset()


def test_bundled_geoquery_shape(geoquery):
    assert len(geoquery.examples) == 50
    assert set(geoquery.dialects) == {"funql", "pymr"}


def test_save_load_round_trip_is_byte_identical(tmp_path, geoquery):
    out = tmp_path / "copy.jsonl"
    save_dataset(geoquery, out)
    assert out.read_bytes() == dataset_path("geoquery").read_bytes()


def test_a_repeated_program_text_is_one_object(tmp_path):
    path = tmp_path / "d.jsonl"
    records = [record(1), record(2), record(3, "pymr")]
    records[2]["programs"]["pymr"] = "def answer():\n    return 1"
    records[1]["programs"]["pymr"] = "def answer():\n    return 1"
    write_jsonl(path, records)
    x1, x2, x3 = load_dataset(path).examples
    assert x1.programs["funql"] is x2.programs["funql"]
    assert x2.programs["pymr"] is x3.programs["pymr"]
    copy = tmp_path / "copy.jsonl"
    save_dataset(load_dataset(path), copy)
    save_dataset(load_dataset(copy), tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == copy.read_bytes()


def test_split_valid_and_invalid(tmp_path):
    data = tmp_path / "d.jsonl"
    write_jsonl(data, [record(1), record(2), record(3)])
    dataset = load_dataset(data)

    good = tmp_path / "s.json"
    good.write_text(json.dumps({"name": "s", "train": ["x-1", "x-2"], "test": ["x-3"]}))
    split = load_split(good, dataset)
    assert split.train_ids == ("x-1", "x-2") and split.test_ids == ("x-3",)

    overlap = tmp_path / "o.json"
    overlap.write_text(json.dumps({"name": "s", "train": ["x-1"], "test": ["x-1"]}))
    with pytest.raises(DataFormatError, match="overlap"):
        load_split(overlap, dataset)

    unknown = tmp_path / "u.json"
    unknown.write_text(json.dumps({"name": "s", "train": ["nope"], "test": []}))
    with pytest.raises(DataFormatError, match="nope"):
        load_split(unknown, dataset)


@pytest.mark.parametrize("payload,part", [
    ({"train": ["x-1", "x-2", "x-1"], "test": ["x-3"]}, "train"),
    ({"train": ["x-1"], "test": ["x-3", "x-2", "x-3"]}, "test"),
])
def test_split_rejects_repeated_ids(tmp_path, payload, part):
    data = tmp_path / "d.jsonl"
    write_jsonl(data, [record(1), record(2), record(3)])
    repeated = "x-1" if part == "train" else "x-3"
    with pytest.raises(DataFormatError, match=f"repeated {part} ids: \\['{repeated}'\\]"):
        load_split_inline(tmp_path, payload, load_dataset(data))


@pytest.mark.parametrize("payload,message", [
    (["x-1"], "expected a JSON object at the top level"),
    ("x-1", "expected a JSON object at the top level"),
    ({"train": "x-1", "test": []}, "field 'train' is not a list of strings: 'x-1'"),
    ({"train": ["x-1"], "test": {"x-2": 1}}, "field 'test' is not a list of strings: {'x-2': 1}"),
    ({"train": ["x-1"], "test": None}, "field 'test' is not a list of strings: None"),
    ({"train": [["x-1"]], "test": []}, "field 'train' is not a list of strings: [['x-1']]"),
    ({"train": ["x-1", "nope"], "test": ["x-2"]}, "unknown example id 'nope'"),
    ({"train": ["x-1", "x-2", "x-1"], "test": ["nope"]}, "unknown example id 'nope'"),
    ({"train": ["x-2", "x-1", "x-2", "x-1"], "test": ["x-3", "x-3"]},
     "repeated train ids: ['x-1', 'x-2']"),
    ({"train": ["x-1"], "test": ["x-3", "x-2", "x-3"]}, "repeated test ids: ['x-3']"),
    ({"train": ["x-3", "x-1", "x-2"], "test": ["x-2", "x-3"]},
     "train/test overlap: ['x-2', 'x-3']"),
])
def test_malformed_split_is_a_data_format_error(tmp_path, payload, message):
    data = tmp_path / "d.jsonl"
    write_jsonl(data, [record(1), record(2), record(3)])
    path = tmp_path / "split.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DataFormatError) as info:
        load_split(path, load_dataset(data))
    assert str(info.value) == f"{path}: {message}"


def test_bundled_split_sizes(geoquery, geoquery_split):
    assert len(geoquery_split.train_ids) == 40
    assert len(geoquery_split.test_ids) == 10
    assert not set(geoquery_split.train_ids) & set(geoquery_split.test_ids)


def train_pool(dataset, split, dialect):
    """The pool ``semkit run`` draws random demos from."""
    return DemoSelector(dataset, split, dialect).pool


def test_sample_single_item_pool(tmp_path):
    data = tmp_path / "d.jsonl"
    write_jsonl(data, [record(1)])
    dataset = load_dataset(data)
    split = load_split_inline(tmp_path, {"train": ["x-1"], "test": []}, dataset)
    assert sample_demos(train_pool(dataset, split, "funql"), 1, 123) == ["x-1"]


def load_split_inline(tmp_path, payload, dataset):
    path = tmp_path / "inline.json"
    path.write_text(json.dumps({"name": "s", **payload}))
    return load_split(path, dataset)


def test_sample_is_deterministic(geoquery, geoquery_split):
    pool = train_pool(geoquery, geoquery_split, "funql")
    assert sample_demos(pool, 5, 7) == sample_demos(pool, 5, 7)


def test_sample_golden_k10_seed0(geoquery, geoquery_split):
    demos = sample_demos(train_pool(geoquery, geoquery_split, "pymr"), 10, 0)
    assert demos == GOLDEN_DEMO_IDS_K10_SEED0


def test_sample_draws_without_replacement(geoquery, geoquery_split):
    ids = set(sample_demos(train_pool(geoquery, geoquery_split, "funql"), 10, 3))
    assert len(ids) == 10
    assert ids <= set(geoquery_split.train_ids)


def list_copy_draw(pool, k, rng):
    """The partial Fisher-Yates draw over a full copy of the pool, as the docstring states it."""
    items = list(pool)
    for i in range(k):
        j = i + rng.below(len(items) - i)
        items[i], items[j] = items[j], items[i]
    return items[:k]


def test_sparse_draw_matches_list_copy_draw():
    for n in range(1, 61):
        pool = [f"id-{i}" for i in range(n)]
        for k in range(1, n + 1):
            for seed in (0, 1, 7, 12345, 2**32 + 5):
                assert sample_demos(pool, k, seed) == list_copy_draw(pool, k, Lcg(seed)), \
                    (n, k, seed)
    assert pool == [f"id-{i}" for i in range(60)]  # the pool itself is left as it was


def test_different_seeds_differ_somewhere(geoquery, geoquery_split):
    pool = train_pool(geoquery, geoquery_split, "funql")
    assert len({tuple(sample_demos(pool, 3, s)) for s in range(100)}) >= 2


@pytest.mark.parametrize("size, k, error, message", [
    (40, 41, PoolExhaustedError, "requested k=41 from a pool of 40"),
    (0, 1, PoolExhaustedError, "empty train pool"),
    (40, 0, ValueError, "k must be >= 1"),
])
def test_pool_exhausted(size, k, error, message):
    with pytest.raises(error) as info:
        sample_demos([f"id-{i}" for i in range(size)], k, 0)
    assert str(info.value) == message


def test_every_bundled_program_parses_in_its_dialect(geoquery, overnight, smcalflow):
    from semkit.execute import operators_of

    for dataset in (geoquery, overnight, smcalflow):
        for example in dataset.examples:
            for dialect, program in example.programs.items():
                assert operators_of(dialect, program), (example.id, dialect)
