import json

import pytest

from semkit import cli, experiment, selection
from semkit.corpus import sample_demos
from semkit.execute import operators_of
from semkit.experiment import DemoSelector, run_experiment
from semkit.resources import data_path
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
    assert selector.select("random", 3, 7) == \
        list(sample_demos(geoquery, geoquery_split, 3, 7, dialect="funql").ids)
    assert len(selector.select("bm25", 3, 0, "rivers in texas")) == 3


def test_state_is_built_once(monkeypatch, geoquery, geoquery_split):
    extracted = counting(monkeypatch, experiment, "operators_of")
    greedy = counting(monkeypatch, experiment, "greedy_select")
    builds = counting(monkeypatch, selection.Bm25Index, "__init__")
    selector = DemoSelector(geoquery, geoquery_split, "funql")
    picks = [selector.select("coverage", 10, seed) for seed in range(3)]
    for query in ("rivers in texas", "how many states", "rivers in texas"):
        selector.select("bm25", 3, 0, query)
    assert len(extracted) == len(geoquery_split.train_ids)
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


def test_gold_outcomes_are_shared_across_seeds(monkeypatch, tmp_path, geoquery,
                                               geoquery_split):
    config_path = data_path("experiment_replay.json")
    config = json.loads(config_path.read_text())
    runs = counting(monkeypatch, experiment, "run_program")
    aggregate = run_experiment(config, config_path.parent, tmp_path)
    assert aggregate["accuracies"] == [0.8, 0.7, 0.9]
    golds = {geoquery[i].programs["pymr"] for i in geoquery_split.test_ids}
    # one prediction per (seed, test example), one gold run per distinct gold program
    assert len(runs) == len(config["seeds"]) * len(geoquery_split.test_ids) + len(golds)


def test_unknown_selection_method_is_an_error(geoquery, geoquery_split):
    with pytest.raises(experiment.SemkitError, match="unknown selection method"):
        DemoSelector(geoquery, geoquery_split, "funql").select("warp", 3, 0)
