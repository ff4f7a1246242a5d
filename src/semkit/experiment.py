"""Experiment engine: run one ``semkit run`` config over its seeds and write the reports.

What does not change between seeds and test examples is built once per
experiment and shared by all of them: the demonstration selector (see
:class:`DemoSelector`) and the per-example step's two halves
(:func:`~semkit.llm.example_evaluator`) with its rendered DD text, prompt
template, outcome memo (:func:`~semkit.execute.memoized_runs`) and the hash
states of its prompts' constant leading text, for the request digests.  Each
seed builds its completion requests in test order and fetches the
completions, overlapping up to ``jobs`` of them on worker threads; the
calling thread then judges each example in test order and prints each
``harness-error`` to stderr as ``seed S ID: message``.  Worlds are read-only,
so a program's outcome depends only on its (dialect, text): the memo runs
each distinct predicted or gold program once per experiment, whichever seed
or example asks first.  Both sides are keyed on the text actually run, which
on calendar is the text after name canonicalization; it maps gold names
first, so the canonical gold text does not depend on the prediction it is
scored against.

Config paths resolve relative to the config file; the ``bundled:`` prefix
names packaged resources, e.g. ``bundled:datasets/geoquery.jsonl``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from . import resources
from .corpus import Dataset, Split, load_dataset, load_split, sample_demos
from .errors import SemkitError
from .evaluation import POLICIES, report_from_verdicts, score_run
from .execute import ENVIRONMENTS, dialect_for, load_environment, memoized_runs, operators_of
from .llm import (DEFAULT_TEMPERATURE, LlmClient, ReplayCache, completion_of,
                  example_evaluator, http_transport)
from .prompts import DD_VARIANTS, default_template, load_dd_source, render_dd
from .resources import INTEGER, INTEGERS, OBJECT, STRING, Schema
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
    if variant == "none":
        return ""
    declarations = load_dd_source(resources.dd_path(environment, dialect))
    return render_dd(declarations, variant)


class DemoSelector:
    """Demonstration selection over the train pool of one (dataset, split, dialect).

    Built once per experiment and shared by its seeds and queries.  The pool's
    operator sets are extracted lazily and at most once: only coverage
    selection and coverage fractions read them.  Pools repeat programs (many
    paraphrases share one), so extraction runs once per distinct program text
    and every id holding that text gets the same set.  The BM25 index is built
    on first use and reused by every query.  Greedy coverage picks do not
    depend on the seed, so they are made once per k.  Not for sharing between
    threads: the engine selects on its calling thread only.
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
        if method == "random":
            return [ex.id for ex in sample_demos(self.dataset, self.split, k, seed, self.dialect)]
        if method == "coverage":
            return self.coverage_picks(k)[0]
        if method == "bm25":
            if query is None:
                raise SemkitError("bm25 selection needs a query utterance")
            return bm25_rank(query, self.bm25_index(), k)
        raise SemkitError(f"unknown selection method {method!r}")


def _csv_row(seed, split_name, dialect, dd_variant, k, accuracy, failure_rate) -> str:
    return (f"{seed},{split_name},{dialect},{dd_variant},{k},"
            f"{accuracy:.6f},{failure_rate:.6f}")


def config_temperature(client_config: dict) -> float:
    """The client's sampling temperature, a JSON number within [0, 2]; else a SemkitError.

    ``-0.0`` comes back as ``0.0``: both are the same temperature, and the request
    fingerprint encodes the float as written."""
    temperature = client_config.get("temperature", DEFAULT_TEMPERATURE)
    if (isinstance(temperature, bool) or not isinstance(temperature, (int, float))
            or not 0.0 <= temperature <= 2.0):
        raise SemkitError(f"client temperature must be a number within [0, 2], "
                          f"not {temperature!r}")
    return float(temperature) + 0.0


_RUN_CONFIG = Schema(("client", OBJECT), ("dataset", STRING), ("split", STRING),
                     ("environment", STRING), ("dialect", STRING), ("seeds", INTEGERS),
                     ("gold_dialect", STRING, None), ("dd_variant", STRING, "full"),
                     ("selection", OBJECT, {"method": "random", "k": 3}),
                     ("template_id", STRING, "v1"), ("environment_file", STRING, None))
_SELECTION = Schema(("k", INTEGER), ("method", STRING))


def run_experiment(config: dict, base: Path, out_dir: Path, jobs: int = 1) -> dict:
    # the whole config is checked before any dataset, split, cache or world is read
    (client_config, dataset_file, split_file, environment, dialect, seeds, gold_dialect,
     dd_variant, selection, template_id, environment_file) = _RUN_CONFIG.read(config, "run config")
    k, method = _SELECTION.read(selection, "run config", within="selection")
    gold_dialect = dialect if gold_dialect is None else gold_dialect
    temperature = config_temperature(client_config)
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
    template = default_template(template_id)  # a bundled resource, not a file the config names
    client, model = make_client(client_config, base, "run config")
    dataset = load_dataset(resolve_path(dataset_file, base))
    split = load_split(resolve_path(split_file, base), dataset)
    if not split.test_ids:
        raise SemkitError("experiment has zero test examples")
    env_object = load_config_environment(environment, environment_file, base)
    policy = POLICIES[environment]
    request, judge = example_evaluator(
        model, temperature, dialect, gold_dialect, dd_variant,
        dd_text(environment, dialect, dd_variant),
        template, policy,
        memoized_runs(environment, env_object),  # predicted and gold, keyed by the text run
        env_object if policy.name_canonicalization else None)
    selector = DemoSelector(dataset, split, dialect)

    out_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    per_seed_rows = []
    by_id = dataset.by_id
    examples = [by_id[test_id] for test_id in split.test_ids]
    for seed in seeds:
        fixed_ids = None if method == "bm25" else selector.select(method, k, seed)
        requests = []
        for example in examples:
            ids = fixed_ids
            if ids is None:
                ids = selector.select("bm25", k, seed, example.utterance)
            requests.append(request(example, [by_id[i] for i in ids]))
        if jobs > 1:  # only the completion calls, which wait on I/O, overlap
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                completions = list(pool.map(lambda r: completion_of(client, r), requests))
        else:
            completions = [completion_of(client, r) for r in requests]
        verdicts = []
        for example, completion in zip(examples, completions):
            verdict, detail = judge(example, completion)
            if verdict == "harness-error":
                print(f"seed {seed} {example.id}: {detail}", file=sys.stderr)
            verdicts.append((example.id, verdict))
        report = report_from_verdicts(seed, verdicts)
        reports.append(report)
        (out_dir / f"report_seed{seed}.json").write_text(
            json.dumps(report.to_json(), indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
        row = _csv_row(seed, split.name, dialect, dd_variant, k,
                       report.accuracy, report.exec_failure_rate)
        per_seed_rows.append(row)
        (out_dir / f"report_seed{seed}.csv").write_text(
            CSV_HEADER + "\n" + row + "\n", encoding="utf-8")

    aggregate = score_run(reports)
    mean_row = _csv_row("mean", split.name, dialect, dd_variant, k,
                        aggregate["mean_accuracy"], aggregate["mean_exec_failure_rate"])
    (out_dir / "aggregate.csv").write_text(
        CSV_HEADER + "\n" + "\n".join(per_seed_rows) + "\n" + mean_row + "\n", encoding="utf-8")
    (out_dir / "aggregate.json").write_text(
        json.dumps(aggregate, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    return aggregate
