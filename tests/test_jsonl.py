"""The shared JSONL reader: every line decodes as ``json.loads(line)`` does.

Each reader of a JSONL file (datasets, the geobase and replay caches) goes
through :func:`semkit.resources.read_jsonl`.  These tests hold it to the
per-line ``json.loads`` loop it replaced: equal records on every bundled
file, and on a bad line the same error message and line.
"""

import json

import pytest

from semkit.corpus import Example, load_dataset
from semkit.errors import DataFormatError
from semkit.geo import load_geobase
from semkit.llm import ReplayCache
from semkit.resources import DATA_DIR, read_jsonl

BUNDLED_JSONL = sorted(DATA_DIR.rglob("*.jsonl"))


def per_line_json_loads(path):
    """The reader the shared one replaced: ``json.loads`` on each non-blank line."""
    with open(path, encoding="utf-8") as fh:
        return [(lineno, json.loads(line)) for lineno, line in enumerate(fh, start=1)
                if line.strip()]


def per_line_error(path):
    """The message the per-line loop gave for the first bad line of ``path``."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                json.loads(line)
            except json.JSONDecodeError as exc:
                return f"{path}: line {lineno}: not valid JSON: {exc}"
    raise AssertionError(f"{path} has no bad line")


def test_every_bundled_jsonl_file_is_covered():
    names = {path.name for path in BUNDLED_JSONL}
    assert {"geoquery.jsonl", "overnight.jsonl", "smcalflow.jsonl", "geobase.jsonl",
            "replay_cache.jsonl", "bootstrap_cache.jsonl"} <= names


@pytest.mark.parametrize("path", BUNDLED_JSONL, ids=lambda path: path.name)
def test_bundled_jsonl_reads_as_per_line_json_loads(path):
    got = list(read_jsonl(path))
    want = per_line_json_loads(path)
    assert got == want
    assert repr(got) == repr(want)  # same types too: 1 is not 1.0 is not True


@pytest.mark.parametrize("name", ["geoquery", "overnight", "smcalflow"])
def test_bundled_datasets_load_as_per_line_records(name):
    path = DATA_DIR / "datasets" / f"{name}.jsonl"
    want = tuple(Example(id=r["id"], utterance=r["utterance"], programs=dict(r["programs"]),
                         tags=frozenset(r.get("tags", [])))
                 for _, r in per_line_json_loads(path))
    assert load_dataset(path).examples == want


VALID_LINES = [
    '{"a": 1}\n',
    '  {"a": [1, 2.0, true, null, "x"]}  \r\n',
    '\t"just a string"\t\n',
    '{"a": "\\u00e9\\ud83d\\ude00"}\n',
    '{"a": 1}',  # no final newline
    'NaN\n',
    '-0.0\n',
]


@pytest.mark.parametrize("line", VALID_LINES)
def test_valid_lines_decode_as_json_loads(tmp_path, line):
    path = tmp_path / "f.jsonl"
    path.write_text(line, encoding="utf-8", newline="")
    [(lineno, got)] = read_jsonl(path)
    assert lineno == 1
    assert repr(got) == repr(json.loads(line))


def test_blank_lines_are_skipped_and_counted(tmp_path):
    path = tmp_path / "f.jsonl"
    blank_by_str_strip_only = "\u00a0\u2003\x1c\n"
    path.write_text('\n   \n\x0c\n\t\r\n{"a": 1}\n\n' + blank_by_str_strip_only + '{"b": 2}\n',
                    encoding="utf-8", newline="")
    assert list(read_jsonl(path)) == [(5, {"a": 1}), (8, {"b": 2})]


MALFORMED = {
    "bad JSON": '{broken\n',
    "truncated": '{"a": [1, 2\n',
    "BOM": '\ufeff{"a": 1}\n',
    "form-feed-led": '\x0c{"a": 1}\n',
    "form-feed-trailed": '{"a": 1}\x0c\n',
    "no-break-space-led": '\u00a0{"a": 1}\n',
    "two values": '{"a": 1} {"b": 2}\n',
    "two numbers": '1 2\n',
    # a bulk decode of "[" + ",".join(lines) + "]" would read these three lines as three objects
    "split and merged": '{"a":1}, {"b":2}\n{"c": [1\n2]}\n',
}

# (reader, a valid first line for it)
READERS = {
    "read_jsonl": (lambda path: list(read_jsonl(path)), '{"a": 1}\n'),
    "load_dataset": (load_dataset, json.dumps(
        {"id": "x", "utterance": "u", "programs": {"funql": "answer(1)"}, "tags": []}) + "\n"),
    "load_geobase": (load_geobase, '{"kind": "country", "name": "usa"}\n'),
    "ReplayCache": (ReplayCache, json.dumps(
        {"fingerprint": "f", "prompt_sha256": "p", "completion": "c"}) + "\n"),
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_line_gives_the_per_line_message(tmp_path, reader, case):
    load, first = READERS[reader]
    path = tmp_path / "f.jsonl"
    path.write_text(first + "\n" + MALFORMED[case], encoding="utf-8", newline="")
    want = per_line_error(path)
    assert ": line 3: " in want
    with pytest.raises(DataFormatError) as info:
        load(path)
    assert str(info.value) == want
    assert isinstance(info.value.__cause__, json.JSONDecodeError)
