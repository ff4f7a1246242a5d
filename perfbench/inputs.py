"""Seeded workload inputs for the semkit benchmark.

Every input is derived from the bundled data and the workload seed through
semkit's own ``corpus.Lcg``: the same seed writes the same files.

* Examples are drawn from the bundled examples.  Programs are copied
  verbatim, so they stay executable; utterances get LCG-drawn vocabulary
  words appended, so BM25 scores and prompts differ between seeds.  Test
  sets and pools are stratified (every bundled example of an environment
  appears equally often, in a seeded order), so a seed changes the inputs
  but not the mix of programs a run pays for.
* Completions come from :class:`model.ScriptedModel`.  Every (test example,
  completion kind) pair is scored with semkit's public evaluation functions
  while the inputs are written, so the verdict each timed example must get is
  known in advance.
* ``run`` workloads get their replay cache from one untimed pass through
  ``run_experiment`` with :meth:`LlmClient.complete` answering from the
  scripted model and storing each reply, so every timed lookup hits and the
  cached prompts are built by the code that is measured.

:func:`prepare` writes the generated files and ``plan.json`` (the calls to
time, the expected verdicts and the loaders set-up time covers) into a work
directory.  The process that runs the workload reads only those files.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from pathlib import Path

from model import EXPECTED_VERDICT, FORMS, Answer, ScriptedModel, render_completion
from semkit import cli, resources
from semkit.corpus import Dataset, Example, Lcg, load_dataset, load_split, save_dataset
from semkit.errors import SemkitError
from semkit.evaluation import POLICIES, canonicalize_names, verdict_of
from semkit.execute import load_environment, run_program
from semkit.llm import LlmClient, extract_program

BUNDLED = {"geo": "geoquery", "social": "overnight", "calendar": "smcalflow"}
NATIVE = {"geo": "funql", "social": "ldcs", "calendar": "dataflow-simple"}
MODEL = "scripted-model-1"

# (name, environment, dialect, gold dialect, DD variant); random selection, k=3
SWEEP_GRID = (
    ("geo-funql", "geo", "funql", "funql", "full"),
    ("geo-pymr", "geo", "pymr", "funql", "no-typing"),
    ("social-ldcs", "social", "ldcs", "ldcs", "operator-list"),
    ("social-ldcs-simple", "social", "ldcs-simple", "ldcs-simple", "none"),
    ("social-pymr", "social", "pymr", "ldcs", "full"),
    ("calendar-dfs", "calendar", "dataflow-simple", "dataflow-simple", "no-typing"),
    ("calendar-pymr", "calendar", "pymr", "dataflow-simple", "operator-list"),
)
SWEEP = {"k": 3, "seeds": 5, "copies": {"geo": 1, "social": 2, "calendar": 2}}

# bm25 and coverage share pool construction: (environment, dialect) experiments
# over pools of copies of the bundled examples
LARGE_POOL = (("geo", "pymr"), ("social", "ldcs"))
POOL_COPIES = {"geo": 20, "social": 50}  # 1000 train examples each
RETRIEVAL = {"k": 3, "seeds": 1, "tests": 8}
COVERAGE = {"k": 8, "seeds": 3, "tests": 12}

ANNOTATE = {"seed_pool": 5, "copies": 8, "passes": 4, "k": 3}  # 400 unlabeled

# percent of completions that are gold / another example's program; the rest
# are truncated gold programs
RUN_MIX = (75, 15)
ANNOTATE_MIX = (50, 30)

_WORD = re.compile(r"[a-z]+")


class Judge:
    """Scores a (predicted, gold) program pair the way ``semkit run`` does."""

    def __init__(self):
        self.environments = {env: load_environment(env, resources.environment_path(env))
                             for env in BUNDLED}

    def verdict(self, environment, dialect, program, gold_dialect, gold_program) -> str:
        env_object = self.environments[environment]
        if POLICIES[environment].name_canonicalization:
            try:
                program, gold_program = canonicalize_names(program, gold_program, env_object)
            except SemkitError:
                return "execution-failure"
        pred = run_program(dialect, program, environment, env_object)
        gold = run_program(gold_dialect, gold_program, environment, env_object)
        return verdict_of(pred, gold, POLICIES[environment])


def bundled_path(reference: str) -> Path:
    """The file a ``bundled:`` path in a semkit config names."""
    return resources.data_path(*reference.removeprefix("bundled:").split("/"))


def bundled_examples(environment: str):
    name = BUNDLED[environment]
    dataset = load_dataset(resources.dataset_path(name))
    return dataset, load_split(resources.split_path(f"{name}_iid"), dataset)


def vocabulary() -> list[str]:
    words = set()
    for environment in BUNDLED:
        for example in bundled_examples(environment)[0].examples:
            words.update(_WORD.findall(example.utterance.lower()))
    return sorted(words)


def shuffled(items, rng: Lcg) -> list:
    items = list(items)
    for i in range(len(items) - 1):
        j = i + rng.below(len(items) - i)
        items[i], items[j] = items[j], items[i]
    return items


def stratified(examples, copies: int, rng: Lcg) -> list[Example]:
    """Every example ``copies`` times, in a seeded order."""
    return shuffled([ex for _ in range(copies) for ex in examples], rng)


def augmented(sources, prefix: str, rng: Lcg, vocab: list[str]) -> list[Example]:
    """Copies of ``sources`` with fresh ids and unique, word-padded utterances."""
    taken: set[str] = set()
    out = []
    for index, source in enumerate(sources):
        utterance = source.utterance
        while utterance == source.utterance or utterance in taken:
            extra = [vocab[rng.below(len(vocab))] for _ in range(1 + rng.below(3))]
            utterance = f"{utterance} {' '.join(extra)}"
        taken.add(utterance)
        out.append(Example(id=f"{prefix}{index:05d}", utterance=utterance,
                           programs=dict(source.programs), tags=source.tags))
    return out


def _checked(judge: Judge, program: str, verdict: str, where) -> str:
    """``program`` after checking it extracts intact and scores ``verdict``."""
    for form in range(FORMS):
        if extract_program(render_completion(program, form)) != program:
            raise RuntimeError(f"{where}: completion form {form} does not extract intact")
    if judge.verdict(*where[:2], program, *where[2:]) != verdict:
        raise RuntimeError(f"{where}: program does not score {verdict}: {program!r}")
    return program


def answers_for(judge: Judge, tests, donors, environment, dialect, gold_dialect,
                rng: Lcg) -> dict[str, Answer]:
    """Gold, wrong and truncated completions for each test, checked up front."""
    answers = {}
    for test in tests:
        gold_program = test.programs[gold_dialect]
        where = (environment, dialect, gold_dialect, gold_program)
        program = _checked(judge, test.programs[dialect], "correct", where)
        start = rng.below(len(donors))
        for step in range(len(donors)):
            donor = donors[(start + step) % len(donors)].programs[dialect]
            if judge.verdict(environment, dialect, donor, gold_dialect, gold_program) == \
                    "wrong-result":
                break
        else:
            raise RuntimeError(f"no wrong-result donor for {test.id}")
        cut = len(program) * 2 // 3
        while judge.verdict(environment, dialect, program[:cut], gold_dialect,
                            gold_program) != "execution-failure":
            cut -= 1
        answers[test.utterance] = Answer(
            example_id=test.id, gold=program,
            other=_checked(judge, donor, "wrong-result", where),
            truncated=_checked(judge, program[:cut].strip(), "execution-failure", where))
    return answers


@contextmanager
def recording(model: ScriptedModel):
    """Make :meth:`LlmClient.complete` answer from ``model`` and store each reply."""
    original = LlmClient.complete

    def complete(client, request):
        completion = model(request.prompt)
        client.cache.put(request, completion)
        return completion

    LlmClient.complete = complete
    try:
        yield
    finally:
        LlmClient.complete = original


def write_json(path: Path, value) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(value, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


class Generator:
    """Collects the files, calls and expectations of one workload."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.rng = Lcg(seed)
        self.vocab = vocabulary()
        self.judge = Judge()
        self.calls: list[dict] = []
        self.setup = {"datasets": [], "environments": [], "caches": [], "dds": []}
        self.sizes: dict[str, int] = {}

    def _setup(self, kind: str, item) -> None:
        if item not in self.setup[kind]:
            self.setup[kind].append(item)

    def dataset(self, name: str, environment: str, train, tests,
                split: bool = True) -> tuple[Path, Path | None]:
        """Write a dataset (train examples, then tests) and, when asked, its split."""
        data_path = self.work / "data" / f"{name}.jsonl"
        split_path = self.work / "data" / f"{name}.split.json" if split else None
        data_path.parent.mkdir(parents=True, exist_ok=True)
        save_dataset(Dataset(name=name, dialects=(), examples=(*train, *tests)), data_path)
        if split:
            write_json(split_path, {"name": name, "train": [ex.id for ex in train],
                                    "test": [ex.id for ex in tests]})
        self._setup("datasets", [str(data_path), split_path and str(split_path)])
        self._setup("environments", [environment, str(resources.environment_path(environment))])
        return data_path, split_path

    def experiment(self, name, environment, dialect, gold_dialect, dd_variant, method, k,
                   seeds, data_path, split_path, tests, donors) -> None:
        """Write one experiment config and its replay cache; record the expectations."""
        model = ScriptedModel(answers_for(self.judge, tests, donors, environment, dialect,
                                          gold_dialect, self.rng), RUN_MIX)
        config_path = self.work / "configs" / f"{name}.json"
        cache_path = self.work / "caches" / f"{name}.jsonl"
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        config = {
            "name": name, "dataset": f"../data/{data_path.name}",
            "split": f"../data/{split_path.name}", "environment": environment,
            "dialect": dialect, "gold_dialect": gold_dialect, "dd_variant": dd_variant,
            "selection": {"method": method, "k": k}, "seeds": seeds,
            "client": {"mode": "replay", "cache": f"../caches/{cache_path.name}",
                       "model": MODEL, "temperature": 0.0},
        }
        write_json(config_path, config)
        with recording(model):
            cli.run_experiment(config, config_path.parent, self.work / "prep" / name)
        test_ids = [ex.id for ex in tests]
        if len(model.log) != len(seeds) * len(test_ids):
            raise RuntimeError(f"{name}: expected one completion per (seed, test)")
        expected: dict[str, dict[str, str]] = {}
        for index, (example_id, kind) in enumerate(model.log):
            if example_id != test_ids[index % len(test_ids)]:
                raise RuntimeError(f"{name}: completions out of test order")
            seed = str(seeds[index // len(test_ids)])
            expected.setdefault(seed, {})[example_id] = EXPECTED_VERDICT[kind]
        self.calls.append({"kind": "run", "name": name, "config": str(config_path),
                           "out": str(self.work / "out" / name), "expected": expected,
                           "examples": len(model.log)})
        self._setup("caches", str(cache_path))
        if dd_variant != "none":
            self._setup("dds", str(resources.dd_path(environment, dialect)))

    def replay(self, timed: bool) -> dict:
        """A call of the bundled ``experiment_replay.json``, run verbatim."""
        config_path = resources.data_path("experiment_replay.json")
        config = json.loads(config_path.read_text(encoding="utf-8"))
        environment = config["environment"]
        data_path, split_path = bundled_path(config["dataset"]), bundled_path(config["split"])
        split = load_split(split_path, load_dataset(data_path))
        call = {"kind": "run", "name": "replay", "config": str(config_path),
                "out": str(self.work / "out" / "replay"), "expected": None,
                "examples": len(config["seeds"]) * len(split.test_ids)}
        if timed:
            self.calls.append(call)
            self._setup("datasets", [str(data_path), str(split_path)])
            self._setup("environments",
                        [environment, str(resources.environment_path(environment))])
            self._setup("caches", str(bundled_path(config["client"]["cache"])))
            self._setup("dds", str(resources.dd_path(environment, config["dialect"])))
        return call


def build_sweep(b: Generator) -> None:
    for environment in BUNDLED:
        dataset, split = bundled_examples(environment)
        train = [dataset[i] for i in split.train_ids]
        tests = augmented(stratified(dataset.examples, SWEEP["copies"][environment], b.rng),
                          f"{environment}-t", b.rng, b.vocab)
        data_path, split_path = b.dataset(f"sweep-{environment}", environment, train, tests)
        b.sizes[f"{environment}.train"] = len(train)
        b.sizes[f"{environment}.tests"] = len(tests)
        seeds = [b.seed * 100 + i for i in range(SWEEP["seeds"])]
        for name, env, dialect, gold_dialect, dd_variant in SWEEP_GRID:
            if env == environment:
                b.experiment(name, environment, dialect, gold_dialect, dd_variant, "random",
                             SWEEP["k"], seeds, data_path, split_path, tests, dataset.examples)
    b.replay(timed=True)
    b.sizes["experiments"] = len(b.calls)
    b.sizes["seeds_per_experiment"] = SWEEP["seeds"]


def build_large_pool(b: Generator, method: str, settings: dict) -> None:
    for environment, dialect in LARGE_POOL:
        dataset, _ = bundled_examples(environment)
        pool = augmented(stratified(dataset.examples, POOL_COPIES[environment], b.rng),
                         f"{environment}-p", b.rng, b.vocab)
        tests = augmented(shuffled(dataset.examples, b.rng)[:settings["tests"]],
                          f"{environment}-q", b.rng, b.vocab)
        name = f"{method}-{environment}-{dialect}"
        data_path, split_path = b.dataset(name, environment, pool, tests)
        seeds = [b.seed * 100 + i for i in range(settings["seeds"])]
        b.experiment(name, environment, dialect, NATIVE[environment], "full", method,
                     settings["k"], seeds, data_path, split_path, tests, dataset.examples)
        b.sizes[f"{environment}.pool"] = len(pool)
        b.sizes[f"{environment}.tests"] = len(tests)
    b.sizes["k"] = settings["k"]
    b.sizes["seeds_per_experiment"] = settings["seeds"]


def build_annotate(b: Generator) -> None:
    environment, dialect, gold_dialect = "geo", "pymr", "funql"
    dataset, split = bundled_examples(environment)
    seed_pool = shuffled([dataset[i] for i in split.train_ids], b.rng)[:ANNOTATE["seed_pool"]]
    sources = augmented(stratified(dataset.examples, ANNOTATE["copies"], b.rng),
                        f"{environment}-u", b.rng, b.vocab)
    model = ScriptedModel(answers_for(b.judge, sources, dataset.examples, environment,
                                      dialect, gold_dialect, b.rng), ANNOTATE_MIX)
    # unlabeled examples lack the dialect being annotated
    unlabeled = [Example(id=ex.id, utterance=ex.utterance, tags=ex.tags,
                         programs={gold_dialect: ex.programs[gold_dialect]})
                 for ex in sources]
    data_path, _ = b.dataset("annotate-geo", environment, seed_pool, unlabeled, split=False)
    answers_path = b.work / "annotate-answers.json"
    write_json(answers_path, model.to_json())
    config_path = b.work / "configs" / "annotate.json"
    write_json(config_path, {
        "dataset": f"../data/{data_path.name}", "environment": environment,
        "dialect": dialect, "gold_dialect": gold_dialect,
        "seed_ids": [ex.id for ex in seed_pool], "unlabeled_ids": [ex.id for ex in unlabeled],
        "k": ANNOTATE["k"], "passes": ANNOTATE["passes"], "seed": b.seed, "model": MODEL})
    b.calls.append({"kind": "bootstrap", "name": "annotate", "config": str(config_path),
                    "answers": str(answers_path), "out": str(b.work / "out" / "pool.jsonl")})
    b._setup("dds", str(resources.dd_path(environment, dialect)))
    b.sizes.update(seed_pool=len(seed_pool), unlabeled=len(unlabeled),
                   passes=ANNOTATE["passes"], k=ANNOTATE["k"])


GENERATORS = {
    "sweep": build_sweep,
    "retrieval": lambda b: build_large_pool(b, "bm25", RETRIEVAL),
    "coverage": lambda b: build_large_pool(b, "coverage", COVERAGE),
    "annotate": build_annotate,
}


def prepare(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs under ``work`` and return its plan."""
    generator = Generator(work, seed)
    GENERATORS[workload](generator)
    plan = {"workload": workload, "seed": seed, "calls": generator.calls,
            "gate": generator.replay(timed=False),
            "setup": generator.setup, "sizes": generator.sizes}
    write_json(work / "plan.json", plan)
    return plan
