"""Datasets, splits and seeded demonstration sampling.

File formats
------------
Dataset files are JSONL, one example per line::

    {"id": str, "utterance": str, "programs": {dialect: str, ...}, "tags": [str, ...]}

``tags`` may be left out.  Lines are read by
:func:`semkit.resources.read_jsonl` and each record's fields through one
:class:`~semkit.resources.Schema`; :func:`load_dataset` then rejects a
repeated id, an unknown dialect name and a program that is not a string.

Split files are JSON::

    {"name": str, "train": [id, ...], "test": [id, ...]}

read by :func:`semkit.resources.read_json_object` and one ``Schema``; every
key may be left out.  An id that is unknown, repeated within a part or in
both parts is rejected too.  Every violation is a
:class:`~semkit.errors.DataFormatError` naming the path (and a dataset's
line).  Dialect names are the keys of :data:`semkit.execute.DIALECTS`.

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
from .resources import OBJECT, STRING, STRINGS, Schema, read_json_object, read_jsonl

_LCG_MULT = 1664525
_LCG_INC = 1013904223
_LCG_MOD = 2**32


@dataclass(frozen=True)
class Example:
    id: str
    utterance: str
    programs: dict[str, str]
    tags: frozenset[str] = frozenset()


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


_EXAMPLE = Schema(("id", STRING), ("utterance", STRING), ("programs", OBJECT),
                  ("tags", STRINGS, ()))


def load_dataset(path, name: str | None = None) -> Dataset:
    """Load a JSONL dataset, preserving file order (the checks are in the module docstring)."""
    examples: list[Example] = []
    seen: set[str] = set()
    dialects: list[str] = []
    for lineno, record in read_jsonl(path):
        ex_id, utterance, programs, tags = _EXAMPLE.read(record, path, lineno)
        if ex_id in seen:
            raise DataFormatError(f"{path}: line {lineno}: duplicate id {ex_id!r}")
        seen.add(ex_id)
        for dialect, program in programs.items():
            if dialect not in DIALECTS:
                raise DataFormatError(f"{path}: line {lineno}: unknown dialect {dialect!r} "
                                      f"(known: {', '.join(DIALECTS)})")
            if not isinstance(program, str):
                raise DataFormatError(f"{path}: line {lineno}: field 'programs.{dialect}' "
                                      f"is not a string: {program!r}")
            if dialect not in dialects:
                dialects.append(dialect)
        examples.append(Example(ex_id, utterance, programs, frozenset(tags)))
    return Dataset(name=name or str(path), dialects=tuple(dialects), examples=tuple(examples))


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


_SPLIT = Schema(("name", STRING, None), ("train", STRINGS, []), ("test", STRINGS, []))


def load_split(path, dataset: Dataset) -> Split:
    """Load a split file and check it against the dataset; ``name`` defaults to the path.

    Every id must name a dataset example, appear at most once within ``train``
    and within ``test``, and not appear in both.
    """
    name, train, test = _SPLIT.read(read_json_object(path), path)
    for ex_id in [*train, *test]:
        if ex_id not in dataset:
            raise DataFormatError(f"{path}: unknown example id {ex_id!r}")
    for part, ids in (("train", train), ("test", test)):
        repeated = sorted(ex_id for ex_id, n in Counter(ids).items() if n > 1)
        if repeated:
            raise DataFormatError(f"{path}: repeated {part} ids: {repeated}")
    overlap = set(train) & set(test)
    if overlap:
        raise DataFormatError(f"{path}: train/test overlap: {sorted(overlap)}")
    return Split(name=str(path) if name is None else name, train_ids=tuple(train),
                 test_ids=tuple(test))


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
) -> DemoSet:
    """Sample ``k`` demonstrations uniformly without replacement from the train pool.

    Deterministic in (dataset order, split, k, seed).  When ``dialect`` is
    given, the pool is restricted to train examples annotated in that dialect.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pool = [i for i in split.train_ids if dialect is None or dialect in dataset[i].programs]
    if not pool:
        raise PoolExhaustedError("empty train pool")
    if k > len(pool):
        raise PoolExhaustedError(f"requested k={k} from a pool of {len(pool)}")
    chosen = _draw(pool, k, Lcg(seed))
    return DemoSet(examples=tuple(dataset[i] for i in chosen), seed=seed, method="random")
