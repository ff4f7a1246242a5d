import json
import random
import threading

import pytest

from semkit import cli, evaluation, execute, experiment, llm, selection
from semkit.corpus import Dataset, Example, Split, load_dataset, load_split, sample_demos
from semkit.execute import operators_of
from semkit.experiment import DemoSelector, run_experiment
from semkit.prompts import load_dd_source
from semkit.resources import data_path, dataset_path, dd_path, split_path
from semkit.selection import coverage_fraction, greedy_select


def counting(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_cli_run_experiment_is_the_engine():
    assert cli.run_experiment is run_experiment


def test_random_and_bm25_never_extract_operators(monkeypatch, geoquery, geoquery_split):
    def refuse(*args):
        raise AssertionError("operators_of called")

    monkeypatch.setattr(experiment, "operators_of", refuse)
    selector = DemoSelector(geoquery, geoquery_split, "funql")
    assert selector.select("random", 3, 7) == sample_demos(
        [i for i in geoquery_split.train_ids if "funql" in geoquery[i].programs], 3, 7)
    assert len(selector.select("bm25", 3, 0, "rivers in texas")) == 3


def test_state_is_built_once(monkeypatch, geoquery, geoquery_split):
    extracted = counting(monkeypatch, experiment, "operators_of")
    greedy = counting(monkeypatch, experiment, "greedy_select")
    builds = counting(monkeypatch, selection.Bm25Index, "__init__")
    selector = DemoSelector(geoquery, geoquery_split, "funql")
    picks = [selector.select("coverage", 10, seed) for seed in range(3)]
    for query in ("rivers in texas", "how many states", "rivers in texas"):
        selector.select("bm25", 3, 0, query)
    texts = {geoquery[i].programs["funql"] for i in geoquery_split.train_ids}
    assert len(extracted) == len(texts)  # once per distinct program text
    assert len(greedy) == 1 and len(builds) == 1
    assert picks[0] == picks[1] == picks[2]


def test_coverage_picks_match_a_fresh_greedy_cover(geoquery, geoquery_split):
    pool = [(i, operators_of("funql", geoquery[i].programs["funql"]))
            for i in geoquery_split.train_ids]
    structures = frozenset().union(*(s for _, s in pool))
    sets = dict(pool)
    selector = DemoSelector(geoquery, geoquery_split, "funql")
    for k in (3, 10, 3):
        want = greedy_select(pool, structures, k)
        fraction = coverage_fraction([sets[i] for i in want], structures)
        assert selector.coverage_picks(k) == (want, fraction)
        assert selector.coverage_fraction(want) == fraction


def repeated_pool(name: str, copies: int) -> tuple[Dataset, Split]:
    """The bundled train examples of ``name``, each ``copies`` times under fresh ids,
    in a seeded order: a pool whose programs repeat, as paraphrase pools do."""
    dataset = load_dataset(dataset_path(name))
    split = load_split(split_path(f"{name}_iid"), dataset)
    sources = [dataset[i] for i in split.train_ids for _ in range(copies)]
    random.Random(7).shuffle(sources)
    examples = tuple(Example(id=f"r{n:03d}", utterance=ex.utterance, programs=ex.programs)
                     for n, ex in enumerate(sources))
    return (Dataset(name=name, dialects=dataset.dialects, examples=examples),
            Split(name="repeated", train_ids=tuple(ex.id for ex in examples), test_ids=()))


@pytest.mark.parametrize("name,dialect", [("geoquery", "funql"), ("geoquery", "pymr"),
                                          ("overnight", "ldcs"), ("overnight", "ldcs-simple"),
                                          ("smcalflow", "dataflow-simple")])
def test_operators_are_extracted_once_per_distinct_text(monkeypatch, name, dialect):
    dataset, split = repeated_pool(name, 4)
    # a fresh per-entry extraction, before operators_of is counted
    pool = [(i, operators_of(dialect, dataset[i].programs[dialect])) for i in split.train_ids]
    structures = frozenset().union(*(s for _, s in pool))
    texts = {dataset[i].programs[dialect] for i in split.train_ids}
    assert len(texts) < len(pool)
    extracted = counting(monkeypatch, experiment, "operators_of")
    selector = DemoSelector(dataset, split, dialect)
    sets = dict(pool)
    for k in (1, 8, len(texts) + 9, 8):  # past the distinct texts, covers reset and repeat
        want = greedy_select(pool, structures, k)
        fraction = coverage_fraction([sets[i] for i in want], structures)
        assert selector.coverage_picks(k) == (want, fraction), k
        assert selector.coverage_fraction(want) == fraction
    assert sorted(args[1] for args in extracted) == sorted(texts)
    assert all(args[0] == dialect for args in extracted)
    by_text = {}
    for ex_id, operators in selector.operator_sets().items():  # one shared set per text
        assert by_text.setdefault(dataset[ex_id].programs[dialect], operators) is operators
    assert selector.operator_sets() == sets


def test_gold_outcomes_are_shared_across_seeds(monkeypatch, tmp_path, geoquery,
                                               geoquery_split):
    config_path = data_path("experiment_replay.json")
    config = json.loads(config_path.read_text())
    runs = counting(monkeypatch, execute, "run_program")  # the one memo's call site
    aggregate = run_experiment(config, config_path.parent, tmp_path)
    assert aggregate["accuracies"] == [0.8, 0.7, 0.9]
    golds = {("pymr", geoquery[i].programs["pymr"]) for i in geoquery_split.test_ids}
    # 30 predictions and 30 gold lookups, but one run per distinct (dialect, text)
    keys = [args[:2] for args in runs]
    assert len(keys) == len(set(keys)) == 16
    assert golds <= set(keys)


def test_jobs_overlap_only_the_completion_calls(monkeypatch, tmp_path):
    threads = {}

    def record_thread(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            threads.setdefault(name, []).append(threading.current_thread())
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    record_thread(execute, "run_program")
    record_thread(llm.LlmClient, "complete")
    config_path = data_path("experiment_replay.json")
    config = json.loads(config_path.read_text())
    aggregate = run_experiment(config, config_path.parent, tmp_path, jobs=4)
    assert aggregate["accuracies"] == [0.8, 0.7, 0.9]
    assert len(threads["complete"]) == 30 and len(threads["run_program"]) == 16
    assert all(t is threading.main_thread() for t in threads["run_program"])
    assert not any(t is threading.main_thread() for t in threads["complete"])


def test_memoized_runs_do_not_keep_a_run_that_raised(monkeypatch, geo_model):
    calls = []

    def flaky_run(dialect, text, environment, env_object):
        calls.append(text)
        if len(calls) == 1:
            raise RuntimeError("harness failure")
        return text

    monkeypatch.setattr(execute, "run_program", flaky_run)
    run = execute.memoized_runs("geo", geo_model)
    with pytest.raises(RuntimeError):
        run("funql", "A")
    assert run("funql", "A") == "A" and run("funql", "A") == "A"
    assert calls == ["A", "A"]


def test_unknown_selection_method_is_an_error(geoquery, geoquery_split):
    with pytest.raises(experiment.SemkitError, match="unknown selection method"):
        DemoSelector(geoquery, geoquery_split, "funql").select("warp", 3, 0)


def test_run_path_goes_through_build_prompt_and_replay_get(monkeypatch, tmp_path, geoquery,
                                                           geo_model):
    """The layers the benchmark traces stay on the run path, and a live client, which
    never looks a completion up, never has a digest computed."""
    config_path = data_path("experiment_replay.json")
    config = json.loads(config_path.read_text())
    plain = run_experiment(config, config_path.parent, tmp_path / "plain")
    built = counting(monkeypatch, llm, "build_prompt")
    looked_up = counting(monkeypatch, llm.ReplayCache, "get")
    assert run_experiment(config, config_path.parent, tmp_path / "counted") == plain
    assert len(built) >= 1 and len(looked_up) == 30
    for name in sorted(p.name for p in (tmp_path / "plain").iterdir()):
        assert (tmp_path / "counted" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes(), name

    digests = [counting(monkeypatch, owner, name)
               for owner, name in ((llm.CompletionRequest, "fingerprint"),
                                   (llm.CompletionRequest, "prompt_digest"),
                                   (llm, "_lead_states"))]
    sent = []

    def transport(request):
        sent.append(request)
        return "def answer():\n    return 1"

    bootstrap = json.loads(data_path("bootstrap_replay.json").read_text())
    unlabeled = [Example(id=i, utterance=geoquery[i].utterance,
                         programs={"funql": geoquery[i].programs["funql"]})
                 for i in bootstrap["unlabeled_ids"]]
    config = llm.BootstrapConfig(environment="geo", dialect="pymr", gold_dialect="funql",
                                 model="desk-model-1", k=3, passes=3, seed=0,
                                 dd_declarations=load_dd_source(dd_path("geo", "pymr")))
    llm.bootstrap_annotations([geoquery[i] for i in bootstrap["seed_ids"]], unlabeled,
                              geo_model, llm.LlmClient(mode="live", transport=transport), config)
    assert len(sent) == 3 * len(unlabeled) and digests == [[], [], []]


def test_report_files_are_json_dumps_with_indent_2(tmp_path):
    out = tmp_path / "out"
    config = json.loads(data_path("experiment_replay.json").read_text(encoding="utf-8"))
    aggregate = run_experiment(config, data_path(), out)
    assert (out / "aggregate.json").read_text(encoding="utf-8") == \
        json.dumps(aggregate, indent=2, ensure_ascii=False) + "\n"
    for seed in config["seeds"]:
        text = (out / f"report_seed{seed}.json").read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n"


def test_run_seed_gives_each_seed_report_its_verdicts(tmp_path):
    config_path = data_path("experiment_replay.json")
    config = json.loads(config_path.read_text())
    run_experiment(config, config_path.parent, tmp_path)
    spec = experiment.read_run_config(config)
    state = experiment.load_run(spec, config_path.parent)
    for seed in spec.seeds:
        report = json.loads((tmp_path / f"report_seed{seed}.json").read_text())
        for jobs in (1, 4):
            verdicts = experiment.run_seed(state, spec, seed, jobs)
            assert [list(v) for v in verdicts] == report["verdicts"], (seed, jobs)


def test_a_run_loads_each_piece_once_for_all_its_seeds(monkeypatch, tmp_path):
    loads = {name: counting(monkeypatch, experiment, name)
             for name in ("default_template", "make_client", "load_dataset", "load_split",
                          "load_environment", "load_dd_source")}
    loads["memoized_runs"] = counting(monkeypatch, evaluation, "memoized_runs")
    config_path = data_path("experiment_replay.json")
    config = json.loads(config_path.read_text())
    assert len(config["seeds"]) == 3
    run_experiment(config, config_path.parent, tmp_path)
    assert {name: len(calls) for name, calls in loads.items()} == dict.fromkeys(loads, 1)
