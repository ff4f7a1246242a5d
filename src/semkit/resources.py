"""Access to the bundled data files (corpora, environments, DD sources), and the JSONL and
world-file readers."""

from __future__ import annotations

import json
from pathlib import Path

from .errors import DataFormatError

DATA_DIR = Path(__file__).parent / "data"

_raw_decode = json.JSONDecoder().raw_decode
_JSON_SPACE = " \t\r\n"  # the whitespace json.loads skips around a value


def read_jsonl(path):
    """Yield (line number, record) for each non-blank line of a JSONL file.

    A line decodes to exactly what ``json.loads(line)`` gives.  The fast path
    decodes the line stripped of JSON whitespace in one ``raw_decode``; a line
    it cannot take whole goes to ``json.loads``, so a bad line fails with that
    call's message, as ``DataFormatError("<path>: line <n>: not valid JSON: ...")``.
    """
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            text = line.strip(_JSON_SPACE)
            try:
                record, end = _raw_decode(text)
            except ValueError:
                end = -1
            if end != len(text):
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataFormatError(f"{path}: line {lineno}: not valid JSON: {exc}") from exc
            yield lineno, record


def read_world(path, person_keys: tuple[str, ...], top_keys: tuple[str, ...] = ()) -> dict:
    """Decode a JSON world file: an object holding ``people`` and ``top_keys``, whose
    ``people`` is a list of objects each holding ``person_keys``; else a DataFormatError."""
    with open(path, encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise DataFormatError(f"{path}: expected a JSON object at the top level")
    for key in ("people", *top_keys):
        if key not in record:
            raise DataFormatError(f"{path}: missing field {key!r}")
    if not isinstance(record["people"], list):
        raise DataFormatError(f"{path}: 'people' must be a list")
    for at, person in enumerate(record["people"]):
        if not isinstance(person, dict):
            raise DataFormatError(f"{path}: people[{at}]: expected a JSON object")
        for key in person_keys:
            if key not in person:
                raise DataFormatError(f"{path}: people[{at}]: missing field {key!r}")
    return record


def data_path(*parts: str) -> Path:
    path = DATA_DIR.joinpath(*parts)
    if not path.exists():
        raise FileNotFoundError(f"no bundled resource {'/'.join(parts)!r}")
    return path


def dataset_path(name: str) -> Path:
    return data_path("datasets", f"{name}.jsonl")


def split_path(name: str) -> Path:
    return data_path("splits", f"{name}.json")


def environment_path(environment: str) -> Path:
    names = {"geo": "geobase.jsonl", "social": "social_db.json", "calendar": "calendar_world.json"}
    return data_path(names[environment])


def dd_path(environment: str, dialect: str) -> Path:
    return data_path("dd", f"{environment}_{dialect.replace('-', '_')}.json")


def template_path(template_id: str = "v1") -> Path:
    return data_path(f"prompt_template_{template_id}.txt")
