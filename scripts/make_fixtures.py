#!/usr/bin/env python3
"""Regenerate the bundled replay fixtures and print the frozen golden values.

Builds the replay cache for the bundled GeoQuery experiment (3 seeds x 10 test
examples, with a few planted wrong/broken completions so accuracy is
interesting), the bootstrap fixture cache (4 of 5 cached candidates correct),
and the two experiment config files.  Golden values printed at the end are
frozen into the test suite.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from semkit.corpus import load_dataset, load_split
from semkit.execute import operators_of
from semkit.experiment import DemoSelector, load_run, read_run_config
from semkit.llm import CompletionRequest, ReplayCache
from semkit.prompts import load_dd_source
from semkit.resources import DATA_DIR, dataset_path, dd_path, split_path
from semkit.selection import coverage_fraction, greedy_select

MODEL = "desk-model-1"

# planted mistakes: (seed, test id) -> completion override
WRONG = {
    # executes but returns the wrong thing
    (0, "gq-15"): "def answer():\n    return geo_model.find_state(\"kansas\").population",
    (1, "gq-25"): "def answer():\n    return len(geo_model.cities)",
    (1, "gq-45"): "def answer():\n    return [s.capital for s in geo_model.find_state(\"texas\").next_to]",
    (2, "gq-35"): "def answer():\n    return geo_model.find_place(\"mount elbert\").state",
    # fails to execute
    (0, "gq-30"): "def answer():\n    return sum(r.length for r in geo_model.waterways)",
    (1, "gq-05"): "I'm not sure how to express that as a program, sorry.",
}


def dress(seed: int, index: int, program: str) -> str:
    """Vary the completion surface the way real model output does."""
    style = (seed + index) % 3
    if style == 0:
        return program
    if style == 1:
        return f"```python\n{program}\n```"
    return f"Here is the program:\n\n```python\n{program}\n```\nLet me know if it helps."


def build_run_cache() -> None:
    config = {
        "name": "geoquery-pymr-replay",
        "dataset": "bundled:datasets/geoquery.jsonl",
        "split": "bundled:splits/geoquery_iid.json",
        "environment": "geo",
        "dialect": "pymr",
        "dd_variant": "full",
        "selection": {"method": "random", "k": 3},
        "seeds": [0, 1, 2],
        "client": {"mode": "replay", "cache": "bundled:replay_cache.jsonl",
                   "model": MODEL, "temperature": 0.0},
    }
    (DATA_DIR / "experiment_replay.json").write_text(
        json.dumps(config, indent=2) + "\n", encoding="utf-8")
    (DATA_DIR / "replay_cache.jsonl").write_text("", encoding="utf-8")
    # the run's own demos and request half, so the cache holds the requests a run sends
    spec = read_run_config(config)
    state = load_run(spec, DATA_DIR)
    selector = state.selector
    for seed in spec.seeds:
        demos = [selector.dataset[i] for i in selector.select(spec.method, spec.k, seed)]
        for index, example in enumerate(state.examples):
            program = WRONG.get((seed, example.id), example.programs["pymr"])
            state.client.cache.put(state.request(example, demos), dress(seed, index, program),
                                   {"seed": seed, "id": example.id})


BOOTSTRAP_SEED_IDS = ["gq-01", "gq-02", "gq-03", "gq-04", "gq-06"]
BOOTSTRAP_UNLABELED_IDS = ["gq-07", "gq-08", "gq-09", "gq-11", "gq-12"]
# gq-09 gets a program that executes but disagrees with its FunQL gold
BOOTSTRAP_WRONG = {
    "gq-09": "def answer():\n    return len(geo_model.cities)",
}


def build_bootstrap_cache() -> None:
    from semkit.llm import LlmClient

    dataset = load_dataset(dataset_path("geoquery"))
    by_utterance = {ex.utterance: ex for ex in dataset.examples}
    cache_file = DATA_DIR / "bootstrap_cache.jsonl"
    cache_file.unlink(missing_ok=True)

    def scripted(request: CompletionRequest) -> str:
        test_utterance = request.prompt.rstrip().rsplit("query: ", 1)[1]
        test_utterance = test_utterance.rsplit("\nsolution:", 1)[0]
        example = by_utterance[test_utterance]
        return BOOTSTRAP_WRONG.get(example.id, example.programs["pymr"])

    config = {
        "dataset": "bundled:datasets/geoquery.jsonl",
        "environment": "geo",
        "dialect": "pymr",
        "gold_dialect": "funql",
        "seed_ids": BOOTSTRAP_SEED_IDS,
        "unlabeled_ids": BOOTSTRAP_UNLABELED_IDS,
        "k": 3,
        "passes": 3,
        "seed": 0,
        "client": {"mode": "replay", "cache": "bundled:bootstrap_cache.jsonl",
                   "model": MODEL},
    }
    (DATA_DIR / "bootstrap_replay.json").write_text(
        json.dumps(config, indent=2) + "\n", encoding="utf-8")

    # record pass-1 requests with the scripted transport (passes 2+ then miss)
    from semkit.llm import BootstrapConfig, bootstrap_annotations
    from semkit.corpus import Example
    seed_pool = [dataset[i] for i in BOOTSTRAP_SEED_IDS]
    unlabeled = []
    for ex_id in BOOTSTRAP_UNLABELED_IDS:
        ex = dataset[ex_id]
        unlabeled.append(Example(id=ex.id, utterance=ex.utterance,
                                 programs={d: p for d, p in ex.programs.items() if d != "pymr"},
                                 tags=ex.tags))
    from semkit.execute import load_environment
    from semkit.resources import environment_path
    client = LlmClient(mode="record", cache=ReplayCache(cache_file), transport=scripted)
    bootstrap_config = BootstrapConfig(
        environment="geo", dialect="pymr", gold_dialect="funql", model=MODEL,
        k=3, passes=1, seed=0,
        dd_declarations=load_dd_source(dd_path("geo", "pymr")))
    pool = bootstrap_annotations(seed_pool, unlabeled,
                                 load_environment("geo", environment_path("geo")),
                                 client, bootstrap_config)
    assert len(pool) == 9, len(pool)


def goldens() -> None:
    dataset = load_dataset(dataset_path("geoquery"))
    split = load_split(split_path("geoquery_iid"), dataset)
    demo_ids = DemoSelector(dataset, split, "pymr").select("random", 10, 0)
    print("sample_demos k=10 seed=0:", demo_ids)
    pool = [(ex_id, operators_of("funql", dataset[ex_id].programs["funql"]))
            for ex_id in split.train_ids]
    structures = frozenset().union(*(s for _, s in pool))
    print("|S| =", len(structures))
    selected = greedy_select(pool, structures, 10)
    sets = dict(pool)
    fraction = coverage_fraction([sets[i] for i in selected], structures)
    print("greedy k=10:", selected)
    print("coverage fraction: %.17g" % fraction)


def main() -> None:
    build_run_cache()
    build_bootstrap_cache()
    goldens()
    print("fixtures written under", DATA_DIR)


if __name__ == "__main__":
    main()
