"""Datasets, splits and seeded demonstration sampling.

File formats
------------
Dataset files are JSONL, one example per line::

    {"id": str, "utterance": str, "programs": {dialect: str, ...}, "tags": [str, ...]}

``tags`` may be left out.  Lines are read by
:func:`semkit.resources.read_jsonl`, which skips blank lines and decodes each
other line as ``json.loads`` would.  :func:`load_dataset` then checks each
record in this order and raises :class:`~semkit.errors.DataFormatError`,
naming the path and line, at the first violation: the line is not valid JSON;
it is not an object; ``id``, ``utterance`` or ``programs`` is missing; ``id``
is not a string; ``id`` repeats an earlier line's; ``utterance`` is not a
string; ``programs`` is not an object; a dialect name is unknown; a program is
not a string; ``tags`` is not an array of strings.

Split files are JSON::

    {"name": str, "train": [id, ...], "test": [id, ...]}

A split file that is not an object, whose ``train`` or ``test`` is not an
array, or whose ids are unknown, repeated within a part or in both parts, is a
``DataFormatError``.  Dialect names are the keys of
:data:`semkit.execute.DIALECTS`.

Sampling PRNG
-------------
Demonstration sampling must be reproducible across implementations, so it does
not use the host language's random module.  It uses the 32-bit linear
congruential generator

    state := (1664525 * state + 1013904223) mod 2**32

(Numerical Recipes constants), seeded with ``seed mod 2**32`` and stepped once
before first use.  ``k`` items are drawn without replacement by a partial
Fisher-Yates shuffle over the pool in file order: at step ``i`` the item at
index ``i + (state mod (n - i))`` is swapped into position ``i``, advancing the
state once per step.  The first ``k`` positions are the sample, in draw order.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .errors import DataFormatError, PoolExhaustedError
from .execute import DIALECTS
from .resources import read_jsonl

_LCG_MULT = 1664525
_LCG_INC = 1013904223
_LCG_MOD = 2**32


@dataclass(frozen=True)
class Example:
    id: str
    utterance: str
    programs: dict[str, str]
    tags: frozenset[str] = frozenset()

    def tag_value(self, prefix: str) -> str | None:
        """Return the value of a "prefix:value" tag, or None."""
        for tag in self.tags:
            if tag.startswith(prefix + ":"):
                return tag[len(prefix) + 1:]
        return None


@dataclass(frozen=True)
class Dataset:
    name: str
    dialects: tuple[str, ...]
    examples: tuple[Example, ...]

    def __post_init__(self):
        object.__setattr__(self, "_by_id", {ex.id: ex for ex in self.examples})

    def __getitem__(self, example_id: str) -> Example:
        return self._by_id[example_id]

    def __contains__(self, example_id: str) -> bool:
        return example_id in self._by_id

    def __len__(self) -> int:
        return len(self.examples)


@dataclass(frozen=True)
class Split:
    name: str
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]


@dataclass(frozen=True)
class DemoSet:
    examples: tuple[Example, ...]
    seed: int
    method: str  # "random" | "coverage" | "bm25"

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(ex.id for ex in self.examples)


def load_dataset(path, name: str | None = None) -> Dataset:
    """Load a JSONL dataset, preserving file order.

    Raises DataFormatError, naming the path and line, on a line that is not a
    JSON object of the documented shape, a duplicate id or an unknown dialect
    name (the checks and their order are in the module docstring).
    """
    examples: list[Example] = []
    seen: set[str] = set()
    dialects: list[str] = []

    def bad(message: str) -> DataFormatError:
        return DataFormatError(f"{path}: line {lineno}: {message}")

    for lineno, record in read_jsonl(path):
        if not isinstance(record, dict):
            raise bad(f"expected a JSON object, got {_json_type(record)}")
        try:
            ex_id = record["id"]
            utterance = record["utterance"]
            programs = record["programs"]
        except KeyError as exc:
            raise bad(f"missing field {exc}") from exc
        tags = record.get("tags", [])
        if not isinstance(ex_id, str):
            raise bad(f"id must be a string, got {_json_type(ex_id)}")
        if ex_id in seen:
            raise bad(f"duplicate id {ex_id!r}")
        seen.add(ex_id)
        if not isinstance(utterance, str):
            raise bad(f"utterance must be a string, got {_json_type(utterance)}")
        if not isinstance(programs, dict):
            raise bad(f"programs must be an object, got {_json_type(programs)}")
        for dialect in programs:
            if dialect not in DIALECTS:
                raise bad(f"unknown dialect {dialect!r} (known: {', '.join(DIALECTS)})")
            if dialect not in dialects:
                dialects.append(dialect)
        for dialect, program in programs.items():
            if not isinstance(program, str):
                raise bad(f"program {dialect!r} must be a string, got {_json_type(program)}")
        if not isinstance(tags, list) or not all(isinstance(tag, str) for tag in tags):
            raise bad("tags must be an array of strings")
        examples.append(Example(ex_id, utterance, programs, frozenset(tags)))
    return Dataset(name=name or str(path), dialects=tuple(dialects), examples=tuple(examples))


def _json_type(value) -> str:
    """The JSON name of a decoded value's type."""
    if isinstance(value, bool):
        return "a boolean"
    return {dict: "an object", list: "an array", str: "a string", int: "a number",
            float: "a number"}.get(type(value), "null")


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset back to JSONL; load/save round-trips byte-identically."""
    with open(path, "w", encoding="utf-8") as fh:
        for ex in dataset.examples:
            fh.write(example_to_json_line(ex) + "\n")


def example_to_json_line(ex: Example) -> str:
    record = {
        "id": ex.id,
        "utterance": ex.utterance,
        "programs": {d: ex.programs[d] for d in sorted(ex.programs)},
        "tags": sorted(ex.tags),
    }
    return json.dumps(record, ensure_ascii=False)


def load_split(path, dataset: Dataset) -> Split:
    """Load a split file and check it against the dataset.

    Every id must name a dataset example, appear at most once within ``train``
    and within ``test``, and not appear in both.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise DataFormatError(f"{path}: expected a JSON object, got {_json_type(record)}")
    train = record.get("train", [])
    test = record.get("test", [])
    for part, ids in (("train", train), ("test", test)):
        if not isinstance(ids, list):
            raise DataFormatError(f"{path}: {part} must be an array, got {_json_type(ids)}")
    for ex_id in [*train, *test]:
        if not isinstance(ex_id, str) or ex_id not in dataset:
            raise DataFormatError(f"{path}: unknown example id {ex_id!r}")
    for part, ids in (("train", train), ("test", test)):
        repeated = sorted(ex_id for ex_id, n in Counter(ids).items() if n > 1)
        if repeated:
            raise DataFormatError(f"{path}: repeated {part} ids: {repeated}")
    overlap = set(train) & set(test)
    if overlap:
        raise DataFormatError(f"{path}: train/test overlap: {sorted(overlap)}")
    return Split(name=record.get("name", str(path)), train_ids=tuple(train), test_ids=tuple(test))


class Lcg:
    """The documented 32-bit LCG (see module docstring)."""

    def __init__(self, seed: int):
        self.state = seed % _LCG_MOD
        self.next()  # decorrelate small consecutive seeds

    def next(self) -> int:
        self.state = (_LCG_MULT * self.state + _LCG_INC) % _LCG_MOD
        return self.state

    def below(self, n: int) -> int:
        return self.next() % n


def _draw(pool: list, k: int, rng: Lcg) -> list:
    """The first ``k`` items of the documented partial Fisher-Yates shuffle of ``pool``.

    Sparse: only swapped positions are recorded (position -> pool index), so a
    draw costs O(k) whatever the pool size, and the pool is neither copied nor
    changed.
    """
    n = len(pool)
    moved: dict[int, int] = {}
    chosen = []
    for i in range(k):
        j = i + rng.below(n - i)
        chosen.append(pool[moved.get(j, j)])
        moved[j] = moved.get(i, i)
    return chosen


def sample_demos(
    dataset: Dataset,
    split: Split,
    k: int,
    seed: int,
    dialect: str | None = None,
    stratify_by: str | None = None,
) -> DemoSet:
    """Sample ``k`` demonstrations uniformly without replacement from the train pool.

    Deterministic in (dataset order, split, k, seed).  When ``dialect`` is
    given, the pool is restricted to train examples annotated in that dialect.
    When ``stratify_by`` names a tag prefix (e.g. "domain"), at least two
    examples per tag value are drawn first (pool order per value), then the
    remainder uniformly; default is plain uniform sampling.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pool = [i for i in split.train_ids if dialect is None or dialect in dataset[i].programs]
    if not pool:
        raise PoolExhaustedError("empty train pool")
    if k > len(pool):
        raise PoolExhaustedError(f"requested k={k} from a pool of {len(pool)}")
    rng = Lcg(seed)
    chosen: list[str]
    if stratify_by is None:
        chosen = _draw(pool, k, rng)
    else:
        by_value: dict[str, list[str]] = {}
        for ex_id in pool:
            value = dataset[ex_id].tag_value(stratify_by)
            if value is not None:
                by_value.setdefault(value, []).append(ex_id)
        chosen = []
        for value in sorted(by_value):
            ids = by_value[value]
            want = min(2, len(ids), max(0, k - len(chosen)))
            chosen.extend(_draw(ids, want, rng))
        taken = set(chosen)
        rest = [i for i in pool if i not in taken]
        remaining = k - len(chosen)
        if remaining > 0:
            chosen.extend(_draw(rest, remaining, rng))
    return DemoSet(examples=tuple(dataset[i] for i in chosen), seed=seed, method="random")
