"""Datasets, splits and seeded demonstration sampling.

File formats
------------
Dataset files are JSONL, one example per line::

    {"id": str, "utterance": str, "programs": {dialect: str, ...}, "tags": [str, ...]}

``tags`` may be left out.  Lines are read by
:func:`semkit.resources.read_jsonl` and each record's fields through one
:class:`~semkit.resources.Schema`; :func:`load_dataset` then rejects a
repeated id, an unknown dialect name and a program that is not a string.  It
reads the file in one pass.  Examples are named tuples, examples
without tags share one empty frozenset, and examples with the same program
text share one string.

A process parses a dataset file once while its bytes are unchanged
(:func:`semkit.resources.parsed`, keyed by path): a later :func:`load_dataset`
of it returns the same :class:`Dataset`.  That pays off where one process
runs several experiments on a file; a single command loads it once.  Loaded
datasets are shared by every caller and read-only by contract; nothing
changes an example's ``programs`` in place.  A :class:`Dataset` derives
its map from id to example, ``by_id``, from its examples; :func:`load_split`
and the experiment's demonstration selector look ids up in it directly.

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
Fisher-Yates shuffle over a pool the caller gives (:func:`sample_demos`; ``semkit
run`` passes the train ids annotated in its dialect, in split order, and bootstrap
its annotated pool examples): at step ``i`` the item at index ``i + (state mod
(n - i))`` is swapped into position ``i``, advancing the state once per step.
The first ``k`` positions are the sample, in draw order.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import chain
from typing import NamedTuple

from .errors import DataFormatError, PoolExhaustedError
from .execute import DIALECTS
from .readonly import Value
from .resources import (OBJECT, STRING, STRINGS, Schema, parsed, read_json_object,
                        read_jsonl, write_text)

_LCG_MULT = 1664525
_LCG_INC = 1013904223
_LCG_MOD = 2**32


_NO_TAGS: frozenset[str] = frozenset()


class Example(NamedTuple):
    id: str
    utterance: str
    programs: dict[str, str]
    tags: frozenset[str] = _NO_TAGS


class Dataset(Value):
    """Examples in file order; ``by_id`` maps each id to its example (a later example
    wins a repeated id).  Datasets are equal when their name, dialects and examples are."""

    __slots__ = ("name", "dialects", "examples", "by_id")
    _fields = ("name", "dialects", "examples")

    def __init__(self, name: str, dialects: tuple[str, ...], examples: tuple[Example, ...]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "dialects", dialects)
        object.__setattr__(self, "examples", examples)
        object.__setattr__(self, "by_id", {ex.id: ex for ex in examples})

    def __getitem__(self, example_id: str) -> Example:
        return self.by_id[example_id]

    def __contains__(self, example_id: str) -> bool:
        return example_id in self.by_id

    def __len__(self) -> int:
        return len(self.examples)


class Split(NamedTuple):
    name: str
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]


_EXAMPLE = Schema(("id", STRING), ("utterance", STRING), ("programs", OBJECT),
                  ("tags", STRINGS, ()))


def load_dataset(path) -> Dataset:
    """Load a JSONL dataset named by its path, preserving file order (the checks are in the
    module docstring); parsed once per process while the file's bytes are unchanged."""
    return parsed("dataset", path, lambda data: _dataset_of(path, data))


def _dataset_of(path, data: bytes) -> Dataset:
    by_id: dict[str, Example] = {}
    dialects: dict[str, None] = {}  # in order of first use
    texts: dict[str, str] = {}  # one str object per distinct program text
    for lineno, record in read_jsonl(path, data):
        ex_id, utterance, programs, tags = _EXAMPLE.read(record, path, lineno)
        if ex_id in by_id:
            raise DataFormatError(f"{path}: line {lineno}: duplicate id {ex_id!r}")
        for dialect, program in programs.items():
            if dialect not in dialects:
                if dialect not in DIALECTS:
                    raise DataFormatError(f"{path}: line {lineno}: unknown dialect {dialect!r} "
                                          f"(known: {', '.join(DIALECTS)})")
                dialects[dialect] = None
            if not isinstance(program, str):
                raise DataFormatError(f"{path}: line {lineno}: field 'programs.{dialect}' "
                                      f"is not a string: {program!r}")
            programs[dialect] = texts.setdefault(program, program)
        by_id[ex_id] = Example(ex_id, utterance, programs, frozenset(tags) if tags else _NO_TAGS)
    return Dataset(name=str(path), dialects=tuple(dialects),
                   examples=tuple(by_id.values()))


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset back to JSONL; load/save round-trips byte-identically.

    An existing file is rewritten in place (:func:`semkit.resources.write_text`): it ends up
    holding the same bytes as if truncated and rewritten, and a write that fails part-way
    leaves no old byte; but after an operating-system crash the file may hold old bytes, or
    a mix of old and new, which a truncate-and-rewrite on ext4 would not.
    """
    write_text(path, "".join(example_to_json_line(ex) + "\n" for ex in dataset.examples))


def example_to_json_line(ex: Example) -> str:
    record = {
        "id": ex.id,
        "utterance": ex.utterance,
        "programs": {d: ex.programs[d] for d in sorted(ex.programs)},
        "tags": sorted(ex.tags),
    }
    return json.dumps(record, ensure_ascii=False, allow_nan=False)


_SPLIT = Schema(("name", STRING, None), ("train", STRINGS, []), ("test", STRINGS, []))


def load_split(path, dataset: Dataset) -> Split:
    """Load a split file and check it against the dataset; ``name`` defaults to the path.

    Every id must name a dataset example, appear at most once within ``train``
    and within ``test``, and not appear in both.
    """
    name, train, test = _SPLIT.read(read_json_object(path), path)
    by_id = dataset.by_id
    for ex_id in chain(train, test):
        if ex_id not in by_id:
            raise DataFormatError(f"{path}: unknown example id {ex_id!r}")
    train_set, test_set = set(train), set(test)
    for part, ids, distinct in (("train", train, train_set), ("test", test, test_set)):
        if len(distinct) < len(ids):
            repeated = sorted(ex_id for ex_id, n in Counter(ids).items() if n > 1)
            raise DataFormatError(f"{path}: repeated {part} ids: {repeated}")
    overlap = train_set & test_set
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


def sample_demos(pool: list, k: int, seed: int) -> list:
    """The first ``k`` items of the documented partial Fisher-Yates shuffle of ``pool`` under
    ``seed``, in draw order; deterministic in (pool order, k, seed).

    Sparse: only swapped positions are recorded (position -> pool index), so a
    draw costs O(k) whatever the pool size, and the pool is neither copied nor
    changed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(pool)
    if not n:
        raise PoolExhaustedError("empty train pool")
    if k > n:
        raise PoolExhaustedError(f"requested k={k} from a pool of {n}")
    rng = Lcg(seed)
    moved: dict[int, int] = {}
    chosen = []
    for i in range(k):
        j = i + rng.below(n - i)
        chosen.append(pool[moved.get(j, j)])
        moved[j] = moved.get(i, i)
    return chosen
