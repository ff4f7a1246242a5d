"""Experiment engine: ``semkit run`` and ``semkit bootstrap`` without the command line.

:func:`run_experiment` composes three steps.  :func:`read_run_config` checks a
``run`` config into a frozen :class:`RunSpec` and reads no file.
:func:`load_run` reads, once each, the template and client, the dataset and
split (one :class:`DemoSelector`), the world and the DD text, and builds the
per-example step (:func:`~semkit.llm.example_evaluator`), whose one
:func:`~semkit.evaluation.scorer` holds the run's outcome memo.
:func:`run_seed` builds a seed's requests in test order, fetches the
completions (up to ``jobs`` at once, on worker threads), then judges each
example in test order on the calling thread and prints each ``harness-error``
to stderr.  Worlds are read-only, so the memo runs each distinct predicted or
gold (dialect, text) once per loaded run; on calendar that is the text after
name canonicalization, which maps gold names first, so the gold text does not
depend on the prediction.  :func:`run_bootstrap` checks a ``bootstrap``
config, grows its pool (judged by the same step) and writes it.

Config paths resolve relative to the config file; the ``bundled:`` prefix
names packaged resources, e.g. ``bundled:datasets/geoquery.jsonl``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import resources
from .corpus import (Dataset, Example, Split, example_to_json_line, load_dataset, load_split,
                     sample_demos)
from .errors import SemkitError
from .evaluation import report_from_verdicts, score_run
from .execute import ENVIRONMENTS, dialect_for, load_environment, operators_of
from .llm import (DEFAULT_TEMPERATURE, BootstrapConfig, LlmClient, ReplayCache,
                  bootstrap_annotations, completion_of, example_evaluator, http_transport)
from .prompts import DD_VARIANTS, default_template, load_dd_source, render_dd
from .resources import INTEGER, INTEGERS, OBJECT, STRING, STRINGS, Schema, write_text
from .selection import Bm25Index, bm25_rank, coverage_fraction, greedy_select

CSV_HEADER = "seed,split,dialect,dd_variant,k,accuracy,exec_failure_rate"
SELECTION_METHODS = ("random", "coverage", "bm25")


def resolve_path(path: str, base: Path | None = None) -> Path:
    if path.startswith("bundled:"):
        return resources.data_path(*path[len("bundled:"):].split("/"))
    resolved = Path(path)
    if base is not None and not resolved.is_absolute():
        resolved = base / resolved
    return resolved


def load_config_environment(environment: str, environment_file: str | None, base: Path):
    """The environment object a config names; ``environment_file`` defaults to the bundled one."""
    if environment not in ENVIRONMENTS:
        raise SemkitError(f"unknown environment {environment!r}")
    if environment_file is None:
        return load_environment(environment, resources.environment_path(environment))
    return load_environment(environment, resolve_path(environment_file, base))


CLIENT_MODES = ("live", "record", "replay")
_CLIENT = Schema(("mode", STRING, "replay"), ("model", STRING, "unspecified-model"),
                 ("cache", STRING, None), ("endpoint", STRING, None),
                 ("api_key_env", STRING, "SEMKIT_API_KEY"))


def make_client(client_config: dict, base: Path, where: str) -> tuple[LlmClient, str]:
    """The client a config's ``client`` block declares, checked before its cache is read,
    and the model id it asks for."""
    mode, model, cache, endpoint, api_key_env = _CLIENT.read(client_config, where,
                                                             within="client")
    if mode not in CLIENT_MODES:
        raise SemkitError(f"unknown client mode {mode!r} (known: {', '.join(CLIENT_MODES)})")
    if mode != "replay" and endpoint is None:
        raise SemkitError(f"client mode {mode!r} needs an endpoint")
    if mode != "live" and cache is None:
        raise SemkitError(f"client mode {mode!r} needs a cache")
    cache = None if cache is None else ReplayCache(resolve_path(cache, base))
    transport = None if mode == "replay" else http_transport(endpoint, api_key_env)
    return LlmClient(mode=mode, cache=cache, transport=transport), model


def dd_text(environment: str, dialect: str, variant: str) -> str:
    """The bundled DD of (environment, dialect) rendered in ``variant``; ``none`` reads no
    file and is the empty text, which leaves the prompt without a DD header."""
    if variant == "none":
        return ""
    return render_dd(load_dd_source(resources.dd_path(environment, dialect)), variant)


class DemoSelector:
    """Demonstration selection over the train pool of one (dataset, split, dialect).

    Built once per loaded run and shared by its seeds and queries; every method
    picks from :attr:`pool`.  The pool's operator sets are extracted lazily and
    at most once: only coverage selection and coverage fractions read them.
    Pools repeat programs (many paraphrases share one), so extraction runs once
    per distinct program text and every id holding that text gets the same set.
    The BM25 index is built on first use and reused by every query.  Greedy
    coverage picks do not depend on the seed, so they are made once per k.  Not
    for sharing between threads: the engine selects on its calling thread only.
    """

    def __init__(self, dataset: Dataset, split: Split, dialect: str):
        self.dataset = dataset
        self.split = split
        self.dialect = dialect
        by_id = dataset.by_id
        self.pool = [ex_id for ex_id in split.train_ids if dialect in by_id[ex_id].programs]
        self._operator_sets: dict[str, frozenset[str]] | None = None
        self._structures: frozenset[str] = frozenset()
        self._index: Bm25Index | None = None
        self._coverage: dict[int, tuple[list[str], float]] = {}

    def operator_sets(self) -> dict[str, frozenset[str]]:
        if self._operator_sets is None:
            by_text: dict[str, frozenset[str]] = {}
            sets = {}
            by_id = self.dataset.by_id
            for ex_id in self.pool:
                text = by_id[ex_id].programs[self.dialect]
                if text not in by_text:
                    by_text[text] = operators_of(self.dialect, text)
                sets[ex_id] = by_text[text]
            self._operator_sets = sets
            self._structures = frozenset().union(*by_text.values())
        return self._operator_sets

    def coverage_fraction(self, ids) -> float:
        sets = self.operator_sets()
        return coverage_fraction([sets[i] for i in ids], self._structures)

    def coverage_picks(self, k: int) -> tuple[list[str], float]:
        """Greedy coverage picks for ``k`` and the fraction of pool structures they cover."""
        if k not in self._coverage:
            sets = self.operator_sets()
            ids = greedy_select([(i, sets[i]) for i in self.pool], self._structures, k)
            self._coverage[k] = (ids, self.coverage_fraction(ids))
        ids, fraction = self._coverage[k]
        return list(ids), fraction

    def bm25_index(self) -> Bm25Index:
        if self._index is None:
            by_id = self.dataset.by_id
            self._index = Bm25Index([(ex_id, by_id[ex_id].utterance) for ex_id in self.pool])
        return self._index

    def select(self, method: str, k: int, seed: int, query: str | None = None) -> list[str]:
        if k < 1:
            raise SemkitError(f"k must be at least 1, not {k}")
        if method == "random":
            return sample_demos(self.pool, k, seed)
        if method == "coverage":
            return self.coverage_picks(k)[0]
        if method == "bm25":
            if query is None:
                raise SemkitError("bm25 selection needs a query utterance")
            return bm25_rank(query, self.bm25_index(), k)
        raise SemkitError(f"unknown selection method {method!r}")


def load_selector(dataset_file: str, split_file: str, dialect: str, base=None) -> DemoSelector:
    """The selector over a dataset's split for ``dialect``; it holds the dataset and split."""
    dataset = load_dataset(resolve_path(dataset_file, base))
    return DemoSelector(dataset, load_split(resolve_path(split_file, base), dataset), dialect)


def _csv_row(seed, split_name, dialect, dd_variant, k, accuracy, failure_rate) -> str:
    return (f"{seed},{split_name},{dialect},{dd_variant},{k},"
            f"{accuracy:.6f},{failure_rate:.6f}")


_RUN_CONFIG = Schema(("client", OBJECT), ("dataset", STRING), ("split", STRING),
                     ("environment", STRING), ("dialect", STRING), ("seeds", INTEGERS),
                     ("gold_dialect", STRING, None), ("dd_variant", STRING, "full"),
                     ("selection", OBJECT, {"method": "random", "k": 3}),
                     ("environment_file", STRING, None))
_SELECTION = Schema(("k", INTEGER), ("method", STRING))
_RUN_OUTPUT = Schema(("output_dir", STRING, None))


class RunSpec(NamedTuple):
    """A ``run`` config once :func:`read_run_config` has checked it; paths as written."""

    client: dict  # the client block; load_run checks the rest of it as it builds the client
    dataset: str
    split: str
    environment: str
    dialect: str
    gold_dialect: str
    seeds: tuple[int, ...]
    dd_variant: str
    method: str
    k: int
    environment_file: str | None
    temperature: float


def read_run_config(config: dict) -> RunSpec:
    """The checked ``run`` config, or the SemkitError of its first fault; reads no file."""
    (client, dataset, split, environment, dialect, seeds, gold_dialect, dd_variant, selection,
     environment_file) = _RUN_CONFIG.read(config, "run config")
    k, method = _SELECTION.read(selection, "run config", within="selection")
    gold_dialect = dialect if gold_dialect is None else gold_dialect
    temperature = client.get("temperature", DEFAULT_TEMPERATURE)
    if (isinstance(temperature, bool) or not isinstance(temperature, (int, float))
            or not 0.0 <= temperature <= 2.0):
        raise SemkitError(f"client temperature must be a number within [0, 2], not {temperature!r}")
    dialect_for(dialect, environment)
    dialect_for(gold_dialect, environment)
    if dd_variant not in DD_VARIANTS:
        raise SemkitError(f"unknown DD variant {dd_variant!r} (known: {', '.join(DD_VARIANTS)})")
    if method not in SELECTION_METHODS:
        raise SemkitError(f"unknown selection method {method!r}")
    if k < 1:
        raise SemkitError(f"run config: k must be at least 1, not {k}")
    if not seeds:
        raise SemkitError("seeds list must be nonempty")
    # -0.0 becomes 0.0: the same temperature, and the fingerprint encodes the float as written
    return RunSpec(client, dataset, split, environment, dialect, gold_dialect, tuple(seeds),
                   dd_variant, method, k, environment_file, float(temperature) + 0.0)


def run_output_dir(config: dict, base: Path, given: str | None) -> Path:
    """``given`` (``--output-dir``), else the config's ``output_dir``, else ``./out``."""
    (output_dir,) = _RUN_OUTPUT.read(config, "run config")
    if given:
        return Path(given)
    return Path("out") if output_dir is None else resolve_path(output_dir, base)


class RunState(NamedTuple):
    """What :func:`load_run` loaded for one spec: the same for each of its seeds."""

    client: LlmClient
    selector: DemoSelector  # over the spec's dataset and split, for its dialect
    examples: tuple[Example, ...]  # the split's test examples, in test order
    request: Callable  # the two halves of llm.example_evaluator
    judge: Callable


def load_run(spec: RunSpec, base: Path) -> RunState:
    """Everything ``spec`` names, each read once, with its paths resolved against ``base``."""
    template = default_template()
    client, model = make_client(spec.client, base, "run config")
    selector = load_selector(spec.dataset, spec.split, spec.dialect, base)
    if not selector.split.test_ids:
        raise SemkitError("experiment has zero test examples")
    env_object = load_config_environment(spec.environment, spec.environment_file, base)
    request, judge = example_evaluator(
        model, spec.temperature, spec.dialect, spec.gold_dialect,
        dd_text(spec.environment, spec.dialect, spec.dd_variant), template, spec.environment,
        env_object)
    examples = tuple(selector.dataset[i] for i in selector.split.test_ids)
    return RunState(client, selector, examples, request, judge)


def run_seed(state: RunState, spec: RunSpec, seed: int, jobs: int = 1) -> list[tuple[str, str]]:
    """Each test example's ``(id, verdict)`` under ``seed``, in test order; prints each
    ``harness-error`` to stderr as ``seed S ID: message``."""
    selector = state.selector
    fixed_ids = None if spec.method == "bm25" else selector.select(spec.method, spec.k, seed)
    requests = []
    for example in state.examples:
        ids = fixed_ids
        if ids is None:
            ids = selector.select("bm25", spec.k, seed, example.utterance)
        requests.append(state.request(example, [selector.dataset[i] for i in ids]))
    if jobs > 1:  # only the completion calls, which wait on I/O, overlap
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            completions = list(pool.map(lambda r: completion_of(state.client, r), requests))
    else:
        completions = [completion_of(state.client, r) for r in requests]
    verdicts = []
    for example, completion in zip(state.examples, completions):
        verdict, detail = state.judge(example, completion)
        if verdict == "harness-error":
            print(f"seed {seed} {example.id}: {detail}", file=sys.stderr)
        verdicts.append((example.id, verdict))
    return verdicts


def run_experiment(config: dict, base: Path, out_dir: Path, jobs: int = 1) -> dict:
    """Run ``config`` over its seeds and write the per-seed and aggregate reports."""
    spec = read_run_config(config)
    state = load_run(spec, base)
    split_name = state.selector.split.name
    out_dir.mkdir(parents=True, exist_ok=True)
    reports, per_seed_rows = [], []
    for seed in spec.seeds:
        report = report_from_verdicts(seed, run_seed(state, spec, seed, jobs))
        reports.append(report)
        write_text(out_dir / f"report_seed{seed}.json",
                   json.dumps(report.to_json(), indent=2, ensure_ascii=False) + "\n")
        row = _csv_row(seed, split_name, spec.dialect, spec.dd_variant, spec.k,
                       report.accuracy, report.exec_failure_rate)
        per_seed_rows.append(row)
        write_text(out_dir / f"report_seed{seed}.csv", CSV_HEADER + "\n" + row + "\n")

    aggregate = score_run(reports)
    mean_row = _csv_row("mean", split_name, spec.dialect, spec.dd_variant, spec.k,
                        aggregate["mean_accuracy"], aggregate["mean_exec_failure_rate"])
    write_text(out_dir / "aggregate.csv",
               CSV_HEADER + "\n" + "\n".join(per_seed_rows) + "\n" + mean_row + "\n")
    write_text(out_dir / "aggregate.json",
               json.dumps(aggregate, indent=2, ensure_ascii=False) + "\n")
    return aggregate


_BOOTSTRAP_CONFIG = Schema(("dataset", STRING), ("environment", STRING), ("dialect", STRING),
                           ("gold_dialect", STRING), ("seed_ids", STRINGS),
                           ("unlabeled_ids", STRINGS), ("client", OBJECT), ("k", INTEGER, 3),
                           ("passes", INTEGER, 3), ("seed", INTEGER, 0),
                           ("environment_file", STRING, None), ("output", STRING, None))


def run_bootstrap(config: dict, base: Path) -> dict:
    """Grow a ``bootstrap`` config's pool (:func:`~semkit.llm.bootstrap_annotations`), write it
    to ``output`` (else ``./pool.jsonl``) and return the summary ``semkit bootstrap`` prints."""
    (dataset_file, environment, dialect, gold_dialect, seed_ids, unlabeled_ids, client_config,
     k, passes, seed, environment_file, output) = _BOOTSTRAP_CONFIG.read(config,
                                                                          "bootstrap config")
    if not seed_ids:
        raise SemkitError("bootstrap config: seed_ids must be nonempty")
    if k < 1:
        raise SemkitError(f"bootstrap config: k must be at least 1, not {k}")
    dialect_for(dialect, environment)  # before any file is read
    dialect_for(gold_dialect, environment)
    client, model = make_client(client_config, base, "bootstrap config")
    dataset = load_dataset(resolve_path(dataset_file, base))
    for key, ids in (("seed_ids", seed_ids), ("unlabeled_ids", unlabeled_ids)):
        if unknown := [ex_id for ex_id in ids if ex_id not in dataset]:
            raise SemkitError(f"bootstrap config: {key} names unknown example ids: {unknown}")
    seed_pool = [dataset[i] for i in seed_ids]
    # ids listed as unlabeled are treated as lacking the target-dialect annotation
    unlabeled = [dataset[i]._replace(programs={d: p for d, p in dataset[i].programs.items()
                                               if d != dialect}) for i in unlabeled_ids]
    env_object = load_config_environment(environment, environment_file, base)
    bootstrap_config = BootstrapConfig(
        environment=environment, dialect=dialect, gold_dialect=gold_dialect,
        model=model, k=k, passes=passes, seed=seed,
        dd_declarations=load_dd_source(resources.dd_path(environment, dialect)))
    pool = bootstrap_annotations(seed_pool, unlabeled, env_object, client, bootstrap_config)
    output = Path("pool.jsonl") if output is None else resolve_path(output, base)
    write_text(output, "".join(example_to_json_line(example) + "\n" for example in pool))
    return {"pool_before": len(seed_pool), "pool_after": len(pool), "output": str(output)}
