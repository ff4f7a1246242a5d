"""Access to the bundled data files (corpora, environments, DD sources), and the readers
they go through: :func:`read_jsonl`, :func:`read_json`, :func:`read_json_object`,
:func:`read_world`, and :class:`Schema`, in which each field a world, replay-cache, dataset,
split, DD source or config loader reads is declared once as a string, a boolean, a number, a
whole number, an object or a list of strings or whole numbers (lists of objects go through
:func:`objects_of`).  :func:`parsed` builds a value from a file's bytes once per process
while those bytes are unchanged; datasets and worlds are loaded through it.
:func:`write_text` is the one writer of every file semkit writes."""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from pathlib import Path

from .errors import DataFormatError

DATA_DIR = Path(__file__).parent / "data"

_raw_decode = json.JSONDecoder().raw_decode
_JSON_SPACE = " \t\r\n"  # the whitespace json.loads skips around a value


_PARSED: dict[tuple, tuple[bytes, object]] = {}  # (kind, path) -> (sha256 of bytes, value)


def parsed(kind, path, build):
    """``build(data)`` for the bytes ``data`` of the file at ``path``, built once per process
    while those bytes are unchanged.

    Each call reads the file once and takes the sha256 of its bytes.  One entry is kept per
    (``kind``, path as given) for the life of the process: when its digest matches, the
    value built before (the same object) comes back; otherwise ``build`` makes the value
    from the bytes just read, and it replaces the entry.  A build that raises keeps nothing,
    so a bad file fails the same way on every call.  Values are shared by every caller, so
    they are read-only by contract.  Only a process that loads one file more than once gains
    (a caller running several experiments back to back); a single ``semkit`` command loads
    each file once and pays the hash.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).digest()
    key = (kind, str(path))
    entry = _PARSED.get(key)
    if entry is None or entry[0] != digest:
        entry = _PARSED[key] = (digest, build(data))
    return entry[1]


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, rewriting an existing file in place.

    The file ends up holding exactly the bytes ``Path.write_text(text, encoding="utf-8")``
    writes on POSIX (no newline translation; semkit is tested on Linux only), created with
    mode ``0o666`` less the umask when it is new.  An existing file is not truncated to zero
    first: the new bytes overwrite it from the start and the file is cut to their length
    only if it was longer.  ext4 (``auto_da_alloc``) starts writing back a file truncated to
    zero and rewritten as it is closed; skipping that writeback is the whole saving, and it
    is what that writeback is for: after an operating-system crash or power loss, a file
    rewritten here may have the new length but hold old bytes, or a mix of old and new,
    where ``open(path, "w")`` would have left the new bytes or an empty file.  Within a
    running system it is no more atomic than ``open(path, "w")``: a write that raises
    part-way cuts the file to the new bytes written so far and re-raises, so no byte of the
    old content survives.  Text that does not encode raises before the file is opened.  A
    device such as ``/dev/null`` reports size 0, so it is written to and never cut.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        old, written = os.fstat(fd).st_size, 0
        try:
            while written < len(data):
                written += os.write(fd, data[written:])
        finally:
            if old > written:
                os.ftruncate(fd, written)
    finally:
        os.close(fd)


def _text(path, data):
    """The file as ``open(path, encoding="utf-8")`` reads it, universal newlines and all;
    decoded from ``data`` when the caller has read the file's bytes already."""
    return io.TextIOWrapper(open(path, "rb") if data is None else io.BytesIO(data),
                            encoding="utf-8")


def read_jsonl(path, data=None):
    """Yield (line number, record) for each non-blank line of a JSONL file (of its bytes
    ``data``, when given; ``path`` then only names it).

    A line decodes to exactly what ``json.loads(line)`` gives.  The fast path
    decodes the line stripped of JSON whitespace in one ``raw_decode``; a line
    it cannot take whole goes to ``json.loads``, so a bad line fails with that
    call's message, as ``DataFormatError("<path>: line <n>: not valid JSON: ...")``.
    """
    with _text(path, data) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip(_JSON_SPACE)
            try:
                record, end = _raw_decode(text)
            except ValueError:
                end = -1
            if end != len(text):
                if not line.strip():  # a blank line, by str.strip's whitespace, holds no value
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataFormatError(f"{path}: line {lineno}: not valid JSON: {exc}") from exc
            yield lineno, record


def read_json(path, data=None):
    """Decode a JSON file (or its bytes ``data``, as :func:`read_jsonl` does)."""
    with _text(path, data) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not valid JSON: {exc}") from exc


def read_json_object(path, data=None) -> dict:
    """Decode a JSON file whose top level is an object (a world or a config file)."""
    record = read_json(path, data)
    if not isinstance(record, dict):
        raise DataFormatError(f"{path}: expected a JSON object at the top level")
    return record


def read_world(path, data=None) -> tuple[dict, list[tuple[str, dict]]]:
    """Decode a JSON world file: an object whose ``people`` is a list of objects, each
    with a string ``id``.  Returns the object and its ``(id, person)`` pairs."""
    record = read_json_object(path, data)
    return record, [(_PERSON_ID.read(person, path, ("people", at))[0], person)
                    for at, person in enumerate(objects_of(record, "people", path))]


# A kind returns a JSON value as a field's value, or raises TypeError or ValueError.

def _string(value):
    if isinstance(value, str):
        return value
    raise TypeError


def _boolean(value):
    if isinstance(value, bool):
        return value
    raise TypeError


def _strings(value):
    if not isinstance(value, list):
        raise TypeError
    for item in value:
        if not isinstance(item, str):
            raise TypeError
    return value


def _object(value):
    if isinstance(value, dict):
        return value
    raise TypeError


def _number(convert):
    """The kind of what ``convert`` makes of a JSON value other than a boolean, if finite."""
    def kind(value):
        if isinstance(value, bool):
            raise TypeError
        number = convert(value)
        if not math.isfinite(number):  # NaN or infinite: a JSON literal, a string or an overflow
            raise ValueError
        return number
    return kind


def _whole(value):
    """``int`` of a JSON number or numeric string, refusing to drop a fractional part."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError
    return int(value)


def _integers(value):
    if isinstance(value, list):
        return [INTEGER(item) for item in value]
    raise TypeError


def _any(value):
    return value


STRING, BOOLEAN, STRINGS, OBJECT, INTEGERS, ANY = (_string, _boolean, _strings, _object,
                                                   _integers, _any)
INTEGER, NUMBER = _number(_whole), _number(float)
_LABELS = {STRING: "string", BOOLEAN: "boolean", INTEGER: "whole number", NUMBER: "number",
           STRINGS: "list of strings", OBJECT: "JSON object",
           INTEGERS: "list of whole numbers"}


def _place(part) -> str:
    """A location part: a line number, a (list key, index) pair, or an id as is."""
    if isinstance(part, int):
        return f"line {part}"
    return f"{part[0]}[{part[1]}]" if isinstance(part, tuple) else part


def _where(path, *parts) -> str:
    return ": ".join([str(path), *(_place(part) for part in parts if part is not None)])


def _qualified(key: str, within) -> str:
    return key if within is None else f"{_place(within)}.{key}"


class Schema:
    """The declared fields of one kind of JSON object: ``(key, kind)`` pairs, in order,
    or ``(key, kind, default)`` for a field that may be left out.

    :meth:`read` returns the fields' values, or raises a DataFormatError located at
    ``at`` (see :func:`_place`) that names the field ``k[i].key`` for an item ``i`` of a
    list ``k`` read with ``within=(k, i)``.  A boolean is JSON true or false only.  A
    number is what ``int`` or ``float`` converts, so a numeric string such as ``"170"``
    loads too; a boolean, NaN or an infinity (a JSON literal, a string or an overflowed
    float) is not a number.  A whole number may be written ``170.0`` but not ``170.9``.
    """

    def __init__(self, *fields):
        self.kinds = [(key, kind) for key, kind, *_ in fields]
        self.defaults = {key: rest[0] for key, _, *rest in fields if rest}

    def read(self, record, path, at=None, within=None) -> list:
        if not isinstance(record, dict):
            raise DataFormatError(f"{_where(path, at, within)}: expected a JSON object")
        values = []
        for key, kind in self.kinds:
            try:
                values.append(kind(record[key]))
            except KeyError:
                if key not in self.defaults:
                    raise DataFormatError(f"{_where(path, at)}: missing field "
                                          f"{_qualified(key, within)!r}") from None
                values.append(self.defaults[key])
            except (TypeError, ValueError, OverflowError):
                raise DataFormatError(f"{_where(path, at)}: field {_qualified(key, within)!r} "
                                      f"is not a {_LABELS[kind]}: {record[key]!r}") from None
        return values


def objects_of(record: dict, key: str, path, at=None, default=None) -> list:
    """``record[key]``, which must be a list (of objects, as the Schema reading each item
    checks); ``default`` when the key is absent, unless that is None."""
    if key not in record:
        if default is None:
            raise DataFormatError(f"{_where(path, at)}: missing field {key!r}")
        return default
    if not isinstance(record[key], list):
        raise DataFormatError(f"{_where(path, at)}: {key!r} must be a list")
    return record[key]


_PERSON_ID = Schema(("id", STRING))


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

