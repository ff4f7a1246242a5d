"""The shared JSONL reader: every line decodes as ``json.loads(line)`` does.

Each reader of a JSONL file (datasets, the geobase and replay caches) goes
through :func:`semkit.resources.read_jsonl`.  These tests hold it to the
per-line ``json.loads`` loop it replaced: equal records on every bundled
file, and on a bad line the same error message and line.  A file of any kind
the readers load that is not UTF-8 is one DataFormatError naming the file.
"""

import json
import re

import pytest

from semkit.corpus import Example, load_dataset, load_split
from semkit.errors import DataFormatError
from semkit.execute import load_environment
from semkit.geo import load_geobase
from semkit.llm import ReplayCache
from semkit.prompts import load_dd_source
from semkit.resources import (DATA_DIR, dataset_path, dd_path, environment_path,
                              read_json_object, read_jsonl, split_path)

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


# kind of file -> (a bundled file of that kind, what loads it)
FILE_KINDS = {
    "dataset": (dataset_path("geoquery"), load_dataset),
    "split": (split_path("geoquery_iid"),
              lambda path: load_split(path, load_dataset(dataset_path("geoquery")))),
    "geo world": (environment_path("geo"), lambda path: load_environment("geo", path)),
    "social world": (environment_path("social"), lambda path: load_environment("social", path)),
    "calendar world": (environment_path("calendar"),
                       lambda path: load_environment("calendar", path)),
    "replay cache": (DATA_DIR / "replay_cache.jsonl", ReplayCache),
    "DD source": (dd_path("geo", "pymr"), load_dd_source),
    "config": (DATA_DIR / "experiment_replay.json", read_json_object),
}


@pytest.mark.parametrize("at", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("kind", FILE_KINDS)
def test_a_file_that_is_not_utf8_is_one_data_format_error(tmp_path, kind, at):
    bundled, load = FILE_KINDS[kind]
    data = bundled.read_bytes()
    cut = round(len(data) * at)
    path = tmp_path / bundled.name
    path.write_bytes(data[:cut] + b"\xff" + data[cut:])
    with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: not valid UTF-8: "
                                              "'utf-8' codec can't decode byte 0xff in "
                                              f"position {cut}: invalid start byte$") as info:
        load(path)
    assert isinstance(info.value.__cause__, UnicodeDecodeError)
