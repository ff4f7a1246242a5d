"""Access to the bundled data files (corpora, environments, DD sources), and the JSONL reader."""

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
