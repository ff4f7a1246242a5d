"""Datasets and worlds are parsed once per process while a file's bytes are unchanged.

:func:`semkit.resources.parsed` keys what it built by (kind, path) and by the
sha256 of the bytes it built from, so a file rewritten in place is parsed again
whatever its size and mtime, and a failed parse keeps nothing.  The readers
decode those bytes as iterating over the file in text mode would.
"""

import hashlib
import json
import os
import pickle
from pathlib import Path

import pytest

from semkit.corpus import load_dataset
from semkit.errors import DataFormatError
from semkit.execute import load_environment
from semkit.experiment import run_experiment
from semkit.llm import LlmClient
from semkit.resources import data_path, environment_path, read_json, read_jsonl

DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"


def dataset_line(utterance, program="answer(count(state(all)))"):
    return json.dumps({"id": "x", "utterance": utterance, "programs": {"funql": program}}) + "\n"


def rewrite_keeping_mtime(path, text):
    """Overwrite ``path`` with ``text`` of the same size and put its times back."""
    before = os.stat(path)
    assert len(text.encode("utf-8")) == before.st_size
    path.write_text(text, encoding="utf-8")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert os.stat(path).st_mtime_ns == before.st_mtime_ns


def test_unchanged_bytes_give_the_same_object(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(dataset_line("aaa"), encoding="utf-8")
    first = load_dataset(path)
    assert load_dataset(path) is first
    assert load_dataset(str(path)) is first
    assert first.name == str(path)
    world = load_environment("geo", environment_path("geo"))
    assert load_environment("geo", environment_path("geo")) is world


def test_a_rewrite_with_the_same_size_and_mtime_is_parsed_again(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(dataset_line("aaa"), encoding="utf-8")
    assert load_dataset(path)["x"].utterance == "aaa"
    rewrite_keeping_mtime(path, dataset_line("bbb"))
    assert load_dataset(path)["x"].utterance == "bbb"

    world_path = tmp_path / "geobase.jsonl"
    text = environment_path("geo").read_text(encoding="utf-8")
    world_path.write_text(text, encoding="utf-8")
    assert load_environment("geo", world_path).states[0].population == 29145505
    rewrite_keeping_mtime(world_path, text.replace("29145505", "29145506", 1))
    assert load_environment("geo", world_path).states[0].population == 29145506


def test_a_bad_file_fails_on_every_call_until_it_is_fixed(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(dataset_line("aaa", program=7), encoding="utf-8")
    messages = []
    for _ in range(2):
        with pytest.raises(DataFormatError) as info:
            load_dataset(path)
        messages.append(str(info.value))
    assert messages == [f"{path}: line 1: field 'programs.funql' is not a string: 7"] * 2
    path.write_text(dataset_line("aaa"), encoding="utf-8")
    assert load_dataset(path)["x"].utterance == "aaa"

    world_path = tmp_path / "social.json"
    world_path.write_text("[1]", encoding="utf-8")
    for _ in range(2):
        with pytest.raises(DataFormatError, match="expected a JSON object at the top level"):
            load_environment("social", world_path)
    world_path.write_bytes(environment_path("social").read_bytes())
    assert load_environment("social", world_path).people


def test_one_relative_path_in_two_directories_gives_each_file(tmp_path, monkeypatch):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "d.jsonl").write_text(dataset_line(name * 3), encoding="utf-8")
    for name in ("a", "b", "a"):
        monkeypatch.chdir(tmp_path / name)
        assert load_dataset("d.jsonl")["x"].utterance == name * 3


# Raw U+2028 and U+0085 inside a JSON string are not line ends for a text file;
# "\r" and "\r\n" are (universal newlines).
TEXTS = [
    '{"a": "x\u2028y"}\n{"b": "\u0085"}\n',
    '{"a": 1}\r{"b": 2}\r\n\r\n{"c": 3}',
    '{"a": 1}\n{broken\r\n',
    '\ufeff{"a": 1}\n',
]


@pytest.mark.parametrize("text", TEXTS)
def test_readers_decode_bytes_as_the_file_reads(tmp_path, text):
    path = tmp_path / "f.jsonl"
    path.write_text(text, encoding="utf-8", newline="")

    def outcome(read):
        try:
            return read()
        except DataFormatError as exc:
            return str(exc)

    assert outcome(lambda: list(read_jsonl(path, path.read_bytes()))) == \
        outcome(lambda: list(read_jsonl(path)))
    assert outcome(lambda: read_json(path, path.read_bytes())) == outcome(lambda: read_json(path))


def test_two_runs_in_one_process_write_the_frozen_outputs(tmp_path):
    config_path = data_path("experiment_replay.json")
    config = json.loads(config_path.read_text(encoding="utf-8"))
    frozen = json.loads(DIGESTS.read_text(encoding="utf-8"))["replay"]
    for run_dir in (tmp_path / "first", tmp_path / "second"):
        run_experiment(config, config_path.parent, run_dir)
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(run_dir.iterdir())} == frozen


# Each prediction tries to change the shared world in another way.
MUTATIONS = {
    "geo": ["geo_model.states.append(1)", "geo_model.states[0].cities.clear()",
            "geo_model.states[0].population = 1", "del geo_model.rivers[0]"],
    "social": ["api.people.append(1)", "api.people[0].friends.pop()",
               "api.people[0].education.clear()", "api.people[0].name = 'x'"],
    "calendar": ["api.get_current_user().find_team_of().append(1)",
                 "api.add_event(Event(subject='s'))", "api.get_current_user().name = 'x'",
                 "api._world.people.clear()"],
}


@pytest.mark.parametrize("environment,dataset", [("geo", "geoquery"), ("social", "overnight"),
                                                 ("calendar", "smcalflow")])
def test_a_run_leaves_the_shared_world_unchanged(tmp_path, monkeypatch, environment, dataset):
    world = load_environment(environment, environment_path(environment))
    before = pickle.dumps(world)
    attempts = iter(MUTATIONS[environment] * 100)

    def mutating(self, request):
        return f"```python\ndef answer():\n    {next(attempts)}\n    return 1\n```"

    monkeypatch.setattr(LlmClient, "complete", mutating)
    config = json.loads(data_path("experiment_replay.json").read_text(encoding="utf-8"))
    config.update(dataset=f"bundled:datasets/{dataset}.jsonl",
                  split=f"bundled:splits/{dataset}_iid.json", environment=environment)
    aggregate = run_experiment(config, data_path("experiment_replay.json").parent, tmp_path)
    assert aggregate["mean_accuracy"] == 0.0
    assert load_environment(environment, environment_path(environment)) is world
    assert pickle.dumps(world) == before
