"""Experiment engine: run one ``semkit run`` config over its seeds and write the reports.

What does not change between seeds and test examples is built once per
experiment and shared by all of them: the demonstration selector (see
:class:`DemoSelector`), the rendered DD text, the prompt template and the
gold outcomes.  Gold outcomes are keyed by (gold dialect, gold text after
name canonicalization); :func:`~semkit.evaluation.canonicalize_names` maps
gold names first, so the canonical gold text does not depend on the
prediction it is scored against.

Config paths resolve relative to the config file; the ``bundled:`` prefix
names packaged resources, e.g. ``bundled:datasets/geoquery.jsonl``.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

from . import resources
from .corpus import Dataset, Split, load_dataset, load_split, sample_demos
from .errors import SemkitError
from .evaluation import POLICIES, canonicalize_names, report_from_verdicts, score_run, verdict_of
from .execute import load_environment, operators_of, run_program
from .llm import CompletionRequest, LlmClient, ReplayCache, extract_program, http_transport
from .prompts import PromptSpec, build_prompt, default_template, load_dd_source, render_dd
from .selection import Bm25Index, bm25_rank, coverage_fraction, greedy_select

CSV_HEADER = "seed,split,dialect,dd_variant,k,accuracy,exec_failure_rate"


def resolve_path(path: str, base: Path | None = None) -> Path:
    if path.startswith("bundled:"):
        return resources.data_path(*path[len("bundled:"):].split("/"))
    resolved = Path(path)
    if base is not None and not resolved.is_absolute():
        resolved = base / resolved
    return resolved


def load_config_environment(config: dict, base: Path):
    """The environment object a config names; ``environment_file`` defaults to the bundled one."""
    environment = config["environment"]
    default = f"bundled:{resources.environment_path(environment).name}"
    return load_environment(environment,
                            resolve_path(config.get("environment_file", default), base))


def make_client(client_config: dict, base: Path) -> LlmClient:
    mode = client_config.get("mode", "replay")
    cache = None
    if "cache" in client_config:
        cache = ReplayCache(resolve_path(client_config["cache"], base))
    transport = None
    if mode in ("live", "record"):
        transport = http_transport(client_config["endpoint"],
                                   client_config.get("api_key_env", "SEMKIT_API_KEY"))
    return LlmClient(mode=mode, cache=cache, transport=transport)


def dd_text(environment: str, dialect: str, variant: str) -> str:
    if variant == "none":
        return ""
    declarations = load_dd_source(resources.dd_path(environment, dialect))
    return render_dd(declarations, variant)


class DemoSelector:
    """Demonstration selection over the train pool of one (dataset, split, dialect).

    Built once per experiment and shared by its seeds and queries.  The pool's
    operator sets are extracted lazily and at most once: only coverage
    selection and coverage fractions read them.  The BM25 index is built on
    first use and reused by every query.  Greedy coverage picks do not depend
    on the seed, so they are made once per k.  Safe to share between threads.
    """

    def __init__(self, dataset: Dataset, split: Split, dialect: str):
        self.dataset = dataset
        self.split = split
        self.dialect = dialect
        self.pool = [ex_id for ex_id in split.train_ids if dialect in dataset[ex_id].programs]
        self._lock = threading.RLock()
        self._operator_sets: dict[str, frozenset[str]] | None = None
        self._structures: frozenset[str] = frozenset()
        self._index: Bm25Index | None = None
        self._coverage: dict[int, tuple[list[str], float]] = {}

    def operator_sets(self) -> dict[str, frozenset[str]]:
        with self._lock:
            if self._operator_sets is None:
                self._operator_sets = {
                    ex_id: operators_of(self.dialect, self.dataset[ex_id].programs[self.dialect])
                    for ex_id in self.pool}
                self._structures = frozenset().union(*self._operator_sets.values())
            return self._operator_sets

    def coverage_fraction(self, ids) -> float:
        sets = self.operator_sets()
        return coverage_fraction([sets[i] for i in ids], self._structures)

    def coverage_picks(self, k: int) -> tuple[list[str], float]:
        """Greedy coverage picks for ``k`` and the fraction of pool structures they cover."""
        with self._lock:
            if k not in self._coverage:
                sets = self.operator_sets()
                ids = greedy_select([(i, sets[i]) for i in self.pool], self._structures, k)
                self._coverage[k] = (ids, self.coverage_fraction(ids))
            ids, fraction = self._coverage[k]
            return list(ids), fraction

    def bm25_index(self) -> Bm25Index:
        with self._lock:
            if self._index is None:
                self._index = Bm25Index(
                    [(ex_id, self.dataset[ex_id].utterance) for ex_id in self.pool])
            return self._index

    def select(self, method: str, k: int, seed: int, query: str | None = None) -> list[str]:
        if method == "random":
            return list(sample_demos(self.dataset, self.split, k, seed, dialect=self.dialect).ids)
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


def run_experiment(config: dict, base: Path, out_dir: Path, jobs: int = 1) -> dict:
    dataset = load_dataset(resolve_path(config["dataset"], base))
    split = load_split(resolve_path(config["split"], base), dataset)
    if not split.test_ids:
        raise SemkitError("experiment has zero test examples")
    environment = config["environment"]
    dialect = config["dialect"]
    gold_dialect = config.get("gold_dialect", dialect)
    dd_variant = config.get("dd_variant", "full")
    selection = config.get("selection", {"method": "random", "k": 3})
    method, k = selection["method"], int(selection["k"])
    seeds = config["seeds"]
    if not seeds:
        raise SemkitError("seeds list must be nonempty")
    jobs = max(int(config.get("jobs", jobs)), 1)
    model = config["client"].get("model", "unspecified-model")
    temperature = float(config["client"].get("temperature", 0.0))
    client = make_client(config["client"], base)
    env_object = load_config_environment(config, base)
    policy = POLICIES[environment]
    dd = dd_text(environment, dialect, dd_variant)
    template_id = config.get("template_id", "v1")
    template = default_template(template_id)
    selector = DemoSelector(dataset, split, dialect)
    gold_outcomes = {}  # (gold dialect, canonical gold text) -> Outcome
    gold_lock = threading.Lock()

    def gold_outcome(gold_program: str):
        key = (gold_dialect, gold_program)
        with gold_lock:
            if key not in gold_outcomes:
                gold_outcomes[key] = run_program(gold_dialect, gold_program, environment,
                                                 env_object)
            return gold_outcomes[key]

    out_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    per_seed_rows = []
    for seed in seeds:
        fixed_ids = None if method == "bm25" else selector.select(method, k, seed)

        def evaluate_one(test_id, seed=seed, fixed_ids=fixed_ids):
            example = dataset[test_id]
            if fixed_ids is None:
                ids = selector.select("bm25", k, seed, example.utterance)
            else:
                ids = fixed_ids
            spec = PromptSpec(
                dd_variant=dd_variant, dd_text=dd,
                demonstrations=tuple((dataset[i].utterance, dataset[i].programs[dialect])
                                     for i in ids),
                test_utterance=example.utterance, dialect=dialect, template_id=template_id)
            request = CompletionRequest(prompt=build_prompt(spec, template), model=model,
                                        temperature=temperature)
            try:
                completion = client.complete(request)
            except SemkitError as exc:
                print(f"seed {seed} {test_id}: {exc}", file=sys.stderr)
                return (test_id, "execution-failure")
            program = extract_program(completion)
            gold_program = example.programs[gold_dialect]
            if policy.name_canonicalization:
                try:
                    program, gold_program = canonicalize_names(program, gold_program, env_object)
                except SemkitError:
                    return (test_id, "execution-failure")
            pred = run_program(dialect, program, environment, env_object)
            return (test_id, verdict_of(pred, gold_outcome(gold_program), policy))

        if jobs > 1:
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                verdicts = list(pool.map(evaluate_one, split.test_ids))
        else:
            verdicts = [evaluate_one(test_id) for test_id in split.test_ids]
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
