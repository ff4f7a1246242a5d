import builtins
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import semkit
from semkit.cli import main
from semkit.corpus import load_dataset, load_split
from semkit.errors import SemkitError
from semkit.execute import operators_of
from semkit.experiment import read_run_config
from semkit.prompts import build_prompt, default_template, load_dd_source, render_dd
from semkit.resources import data_path, dd_path
from semkit.selection import Bm25Index, bm25_rank, greedy_select

SHOWCASE_FUNQL = "answer(elevation_1(highest(place(loc_2(largest(state(all)))))))"
CANON_LDCS_FULL = ("(call SW.listValue (call SW.filter (call SW.filter (call SW.getProperty "
                    "(call SW.singleton en.person) (string !type)) (string gender) (string =) "
                    "en.gender.male) (string birthdate) (string =) (date 2004 -1 -1)))")
CANON_LDCS_SIMPLE = ("(listValue (filter (filter (getProperty en.person !type) "
                      "gender = en.gender.male) birthdate = 2004))")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_execute_funql_number(tmp_path, capsys):
    program = tmp_path / "p.funql"
    program.write_text(SHOWCASE_FUNQL)
    code, out, _ = run(capsys, "execute", "--env", "geo", "--dialect", "funql",
                       "--program", str(program), "--world", "bundled:geobase.jsonl")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"ok": True, "result": {"kind": "number", "value": 2667.0, "unit": "m"}}


def test_execute_malformed_program_exits_2(tmp_path, capsys):
    program = tmp_path / "p.funql"
    program.write_text("answer(largest(state(all))")
    code, out, err = run(capsys, "execute", "--env", "geo", "--dialect", "funql",
                         "--program", str(program), "--world", "bundled:geobase.jsonl")
    assert code == 2
    assert not json.loads(out)["ok"]
    assert "failed" in err


def test_execute_empty_file_is_usage_error(tmp_path, capsys):
    program = tmp_path / "p.funql"
    program.write_text("   \n")
    code, _, err = run(capsys, "execute", "--env", "geo", "--dialect", "funql",
                       "--program", str(program), "--world", "bundled:geobase.jsonl")
    assert code == 1
    assert "empty" in err


def test_execute_calendar_delta(tmp_path, capsys):
    program = tmp_path / "p.dfs"
    program.write_text("CreateEvent( AND( at_location( Central Park ) , "
                       "starts_at( NextDOW( FRIDAY ) ) ) )")
    code, out, _ = run(capsys, "execute", "--env", "calendar", "--dialect",
                       "dataflow-simple", "--program", str(program),
                       "--world", "bundled:calendar_world.json")
    assert code == 0
    created = json.loads(out)["result"]["created"]
    assert created[0]["location"] == "Central Park"


def test_simplify_single_program(tmp_path, capsys):
    source = tmp_path / "full.ldcs"
    source.write_text(CANON_LDCS_FULL + "\n")
    code, out, _ = run(capsys, "simplify", "--direction", "simplify",
                       "--input", str(source))
    assert code == 0
    assert out.strip() == CANON_LDCS_SIMPLE


def test_simplify_round_trip_batch(tmp_path, capsys, overnight):
    source = tmp_path / "batch.ldcs"
    programs = [ex.programs["ldcs"] for ex in overnight.examples]
    source.write_text("\n".join(programs) + "\n")
    simple_out = tmp_path / "simple.ldcs"
    code, _, _ = run(capsys, "simplify", "--direction", "simplify",
                     "--input", str(source), "--output", str(simple_out))
    assert code == 0
    restored = tmp_path / "full.ldcs"
    code, _, _ = run(capsys, "simplify", "--direction", "desimplify",
                     "--input", str(simple_out), "--output", str(restored))
    assert code == 0
    assert restored.read_text().splitlines() == programs


def test_simplify_error_exits_2(tmp_path, capsys):
    source = tmp_path / "bad.ldcs"
    source.write_text("(listValue\n")
    code, _, err = run(capsys, "simplify", "--input", str(source))
    assert code == 2 and "line 1" in err


@pytest.mark.parametrize("argv, text", [
    (["execute", "--env", "geo", "--dialect", "funql", "--world", "bundled:geobase.jsonl",
      "--program"], "answer(count(state(all)))"),
    (["simplify", "--direction", "simplify", "--input"], CANON_LDCS_FULL),
    (["simplify", "--direction", "desimplify", "--input"], CANON_LDCS_SIMPLE),
    (["run", "--config"], data_path("experiment_replay.json").read_text(encoding="utf-8")),
    (["bootstrap", "--config"], data_path("bootstrap_replay.json").read_text(encoding="utf-8")),
], ids=["execute", "simplify", "desimplify", "run", "bootstrap"])
def test_an_input_file_that_is_not_utf8_is_one_error_line(tmp_path, monkeypatch, capsys, argv,
                                                          text):
    monkeypatch.chdir(tmp_path)  # where run and bootstrap would write by default
    path = tmp_path / "input"
    path.write_bytes(text.encode("utf-8") + b"\xff\n")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: not valid UTF-8: ") and err.count("\n") == 1, err
    assert sorted(os.listdir(tmp_path)) == ["input"]


def test_select_coverage(capsys):
    code, out, _ = run(capsys, "select", "--method", "coverage", "--k", "10",
                       "--dataset", "bundled:datasets/geoquery.jsonl",
                       "--split", "bundled:splits/geoquery_iid.json",
                       "--dialect", "funql")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["ids"]) == 10
    assert abs(payload["coverage_fraction"] - 0.725) < 1e-12


def test_select_bm25_requires_query(capsys):
    code, _, err = run(capsys, "select", "--method", "bm25", "--k", "3",
                       "--dataset", "bundled:datasets/geoquery.jsonl",
                       "--split", "bundled:splits/geoquery_iid.json",
                       "--dialect", "funql")
    assert code == 1 and "query" in err


def test_prompt_command(capsys):
    code, out, _ = run(capsys, "prompt", "--env", "geo", "--dialect", "pymr",
                       "--dataset", "bundled:datasets/geoquery.jsonl",
                       "--split", "bundled:splits/geoquery_iid.json",
                       "--dd", "operator-list", "--k", "2", "--seed", "0",
                       "--utterance", "what is the longest river ?")
    assert code == 0
    assert out.splitlines()[0] == "Below is a description of the domain:"
    assert "query: what is the longest river ?" in out


GEOQUERY = ("--dataset", "bundled:datasets/geoquery.jsonl",
            "--split", "bundled:splits/geoquery_iid.json")


@pytest.mark.parametrize("method, stdout", [
    ("random", '{"method": "random", "k": 3, "ids": ["gq-34", "gq-08", "gq-37"], '
               '"coverage_fraction": 0.3333333333333333}\n'),
    ("coverage", '{"method": "coverage", "k": 3, "ids": ["gq-37", "gq-03", "gq-18"], '
                 '"coverage_fraction": 0.5416666666666666}\n'),
    ("bm25", '{"method": "bm25", "k": 3, "ids": ["gq-46", "gq-31", "gq-21"], '
             '"coverage_fraction": 0.20833333333333334}\n'),
])
def test_select_stdout_is_pinned(capsys, method, stdout):
    code, out, err = run(capsys, "select", "--method", method, "--k", "3", *GEOQUERY,
                         "--dialect", "pymr", "--seed", "1",
                         "--query", "what is the longest river in texas ?")
    assert (code, out, err) == (0, stdout, "")


@pytest.mark.parametrize("dd, sha256", [
    ("none", "c9a42b7e796d44cd0a6e02d0d1747cc6354b37aae56060ce203e431e048b9ffd"),
    ("operator-list", "cc7fe70ce71f1f8cba6149cd623e5ebdad8df41f1f689aa4a16f0fb6615bcdd7"),
    ("no-typing", "25fdff5242a753659ffc56d75e14cb297aad538a06a1df01554054776cd599d3"),
    ("full", "2e1b524a2f63f3ebcf71e6e8553bb62efed4d35a9350c630bf578b3acfa6a874"),
])
def test_prompt_stdout_is_pinned(capsys, dd, sha256):
    code, out, err = run(capsys, "prompt", "--env", "geo", "--dialect", "pymr", *GEOQUERY,
                         "--dd", dd, "--k", "2", "--seed", "0",
                         "--utterance", "what is the longest river ?")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


@pytest.mark.parametrize("k", ["0", "-2"])
@pytest.mark.parametrize("method", ["random", "coverage", "bm25"])
@pytest.mark.parametrize("command", ["select", "prompt"])
def test_a_k_below_one_is_one_error_line(capsys, command, method, k):
    extra = (("--query", "rivers ?") if command == "select"
             else ("--env", "geo", "--utterance", "rivers ?"))
    code, out, err = run(capsys, command, "--method", method, "--k", k, *extra, *GEOQUERY,
                         "--dialect", "pymr")
    assert (code, out, err) == (1, "", f"error: k must be at least 1, not {k}\n")


def test_bootstrap_output_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "bootstrap", "--config", str(data_path("bootstrap_replay.json")))
    assert (code, err) == (0, "")
    assert out == '{"pool_before": 5, "pool_after": 9, "output": "pool.jsonl"}\n'
    assert hashlib.sha256((tmp_path / "pool.jsonl").read_bytes()).hexdigest() == \
        "4a153e739d2cfb9adeeb97c7ac3351fbb7bd7be428f798553a4179d5f61bd757"


def test_run_replay_experiment_twice_is_byte_identical(tmp_path, capsys):
    first = tmp_path / "a"
    second = tmp_path / "b"
    for out_dir in (first, second):
        code, out, _ = run(capsys, "run", "--config",
                           str(data_path("experiment_replay.json")),
                           "--output-dir", str(out_dir))
        assert code == 0
        aggregate = json.loads(out)
        assert aggregate["accuracies"] == [0.8, 0.7, 0.9]
        assert aggregate["mean_accuracy"] == (0.8 + 0.7 + 0.9) / 3
    for name in ("aggregate.csv", "report_seed0.csv", "report_seed1.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_run_missing_cache_entry_degrades_to_failure_verdict(tmp_path, capsys):
    cache_lines = data_path("replay_cache.jsonl").read_text().splitlines()
    (tmp_path / "partial.jsonl").write_text("\n".join(cache_lines[1:]) + "\n")
    config = json.loads(data_path("experiment_replay.json").read_text())
    config["client"]["cache"] = str(tmp_path / "partial.jsonl")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code, out, err = run(capsys, "run", "--config", str(config_path),
                         "--output-dir", str(tmp_path / "out"))
    assert code == 0  # the run completes; the missing entry is one harness-error verdict
    aggregate = json.loads(out)
    assert aggregate["accuracies"] == [0.7, 0.7, 0.9]
    missed = re.fullmatch(r"seed 0 (\S+): no cached completion for fingerprint [0-9a-f]{64}\n", err)
    assert missed is not None, err
    report = json.loads((tmp_path / "out" / "report_seed0.json").read_text())
    assert dict(report["verdicts"])[missed.group(1)] == "harness-error"
    # the model is not blamed: seed 0 keeps the one execution failure of the full cache
    assert (report["n_total"], report["n_correct"], report["n_execution_failures"]) == (10, 7, 1)
    assert report["exec_failure_rate"] == 0.1 and report["accuracy"] == 0.7


def test_run_cache_misses_print_in_test_order_for_any_jobs(tmp_path, capsys, monkeypatch):
    from semkit.errors import CacheMissError
    from semkit.llm import LlmClient

    cache_lines = data_path("replay_cache.jsonl").read_text().splitlines()
    kept = [line for at, line in enumerate(cache_lines) if at not in (3, 7)]  # one seed's
    (tmp_path / "partial.jsonl").write_text("\n".join(kept) + "\n")
    config = json.loads(data_path("experiment_replay.json").read_text())
    config["client"]["cache"] = str(tmp_path / "partial.jsonl")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    complete = LlmClient.complete
    misses = []

    def first_miss_answers_late(client, request):
        try:
            return complete(client, request)
        except CacheMissError:
            misses.append(request)
            if len(misses) == 1:  # so under --jobs 4 the later miss is answered first
                time.sleep(0.2)
            raise

    monkeypatch.setattr(LlmClient, "complete", first_miss_answers_late)
    errs = {}
    for jobs in ("1", "4"):
        misses.clear()
        code, _, errs[jobs] = run(capsys, "run", "--config", str(config_path),
                                  "--output-dir", str(tmp_path / jobs), "--jobs", jobs)
        assert code == 0
    assert errs["1"] == errs["4"]
    missed = re.findall(r"^seed (\S+) (\S+): no cached completion", errs["1"], re.MULTILINE)
    assert len(missed) == len(errs["1"].splitlines()) == 2
    test_ids = load_split(data_path("splits", "geoquery_iid.json"),
                          load_dataset(data_path("datasets", "geoquery.jsonl"))).test_ids
    order = [(config["seeds"].index(int(seed)), test_ids.index(ex_id)) for seed, ex_id in missed]
    assert order == sorted(order)


def test_run_jobs_comes_from_the_command_line_only(tmp_path, capsys, monkeypatch):
    import concurrent.futures

    workers = []
    real_executor = concurrent.futures.ThreadPoolExecutor

    def recording_executor(max_workers=None, **kwargs):
        workers.append(max_workers)
        return real_executor(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording_executor)
    config = json.loads(data_path("experiment_replay.json").read_text())
    config["jobs"] = 1  # as in the README schema of earlier versions
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code, out, _ = run(capsys, "run", "--config", str(config_path),
                       "--output-dir", str(tmp_path / "out"), "--jobs", "4")
    assert code == 0 and json.loads(out)["accuracies"] == [0.8, 0.7, 0.9]
    assert workers == [4, 4, 4]  # one pool per seed


@pytest.mark.parametrize("corrupt_line, message", [
    (lambda line: line[:40], "not valid JSON: "),  # a line cut short
    (lambda line: json.dumps({**json.loads(line), "completion": 7}),
     "field 'completion' is not a string: 7\n"),
], ids=["cut short", "completion 7"])
def test_run_on_a_corrupt_cache_is_an_error_line(tmp_path, capsys, corrupt_line, message):
    cache_lines = data_path("replay_cache.jsonl").read_text().splitlines()
    cache_lines[3] = corrupt_line(cache_lines[3])
    corrupt = tmp_path / "corrupt.jsonl"
    corrupt.write_text("\n".join(cache_lines) + "\n")
    config = json.loads(data_path("experiment_replay.json").read_text())
    config["client"]["cache"] = str(corrupt)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code, out, err = run(capsys, "run", "--config", str(config_path),
                         "--output-dir", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {corrupt}: line 4: {message}")
    assert len(err.splitlines()) == 1  # no traceback


def _edited(change):
    """A config-text edit that applies ``change`` to the decoded config."""
    def edit(text):
        config = json.loads(text)
        change(config)
        return json.dumps(config)
    return edit


_CUT_SHORT, _IN_A_LIST = (lambda text: text[:-3]), (lambda text: f"[{text}]")


CONFIG_ERRORS = [
    ("run", _CUT_SHORT, "{path}: not valid JSON: "),
    ("run", _IN_A_LIST, "{path}: expected a JSON object at the top level\n"),
    ("run", _edited(lambda c: c.pop("client")), "run config: missing field 'client'\n"),
    ("run", _edited(lambda c: c.update(dd_variant="fancy")),
     "unknown DD variant 'fancy' (known: none, operator-list, no-typing, full)\n"),
    ("run", _edited(lambda c: c.update(seeds="ab")),
     "run config: field 'seeds' is not a list of whole numbers: 'ab'\n"),
    ("run", _edited(lambda c: c.update(selection={"k": "x"})),
     "run config: field 'selection.k' is not a whole number: 'x'\n"),
    *(("run", _edited(lambda c, selection={"method": method, "k": k}: c.update(
        selection=selection)), f"run config: k must be at least 1, not {k}\n")
      for method in ("random", "coverage", "bm25") for k in (0, -1)),
    ("run", _edited(lambda c: c["client"].update(mode="warp")),
     "unknown client mode 'warp' (known: live, record, replay)\n"),
    ("run", _edited(lambda c: c["client"].update(mode="live")),
     "client mode 'live' needs an endpoint\n"),
    ("run", _edited(lambda c: c["client"].pop("cache")), "client mode 'replay' needs a cache\n"),
    ("run", _edited(lambda c: c["client"].update(cache=7)),
     "run config: field 'client.cache' is not a string: 7\n"),
    ("run", _edited(lambda c: c["client"].update(model=7)),
     "run config: field 'client.model' is not a string: 7\n"),
    ("run", _edited(lambda c: c.update(output_dir=7)),
     "run config: field 'output_dir' is not a string: 7\n"),
    ("run", _edited(lambda c: c.update(environment_file=7)),
     "run config: field 'environment_file' is not a string: 7\n"),
    ("bootstrap", _CUT_SHORT, "{path}: not valid JSON: "),
    ("bootstrap", _IN_A_LIST, "{path}: expected a JSON object at the top level\n"),
    ("bootstrap", _edited(lambda c: c.pop("dataset")),
     "bootstrap config: missing field 'dataset'\n"),
    ("bootstrap", _edited(lambda c: c["client"].update(mode="warp")),
     "unknown client mode 'warp' (known: live, record, replay)\n"),
    ("bootstrap", _edited(lambda c: c.update(output=7)),
     "bootstrap config: field 'output' is not a string: 7\n"),
    ("bootstrap", _edited(lambda c: c.update(k=0)),
     "bootstrap config: k must be at least 1, not 0\n"),
    ("bootstrap", _edited(lambda c: c.update(seed_ids=[])),
     "bootstrap config: seed_ids must be nonempty\n"),
]
CONFIG_ERROR_IDS = [
    "run not JSON", "run top level a list", "run without client", "run DD fancy",
    "run seeds ab", "run k x",
    *(f"run {method} k {k}" for method in ("random", "coverage", "bm25") for k in (0, -1)),
    "run mode warp", "run live without endpoint",
    "run replay without cache", "run cache 7", "run model 7", "run output_dir 7",
    "run environment_file 7", "bootstrap not JSON",
    "bootstrap top level a list", "bootstrap without dataset", "bootstrap mode warp",
    "bootstrap output 7", "bootstrap k 0", "bootstrap no seed ids"]
# The run-config cases that fail before the prompt template is read: the client
# block's own checks come after it, and output_dir is read by run_output_dir.
RUN_SPEC_ERRORS = [(edit, message, name) for (command, edit, message), name
                   in zip(CONFIG_ERRORS, CONFIG_ERROR_IDS)
                   if name in ("run without client", "run DD fancy", "run seeds ab", "run k x",
                               "run environment_file 7") or re.fullmatch(r"run \w+ k -?\d", name)]


@pytest.mark.parametrize("command, edit, message", CONFIG_ERRORS, ids=CONFIG_ERROR_IDS)
def test_malformed_config_is_an_error_line_before_any_file_is_read(tmp_path, capsys, command,
                                                                   edit, message):
    bundled = "experiment_replay.json" if command == "run" else "bootstrap_replay.json"
    config = json.loads(data_path(bundled).read_text())
    missing = tmp_path / "missing"  # reading any file the config names fails differently
    config.update(dataset=str(missing / "data.jsonl"), environment_file=str(missing / "w.json"))
    if "split" in config:
        config["split"] = str(missing / "split.json")
    config["client"]["cache"] = str(missing / "cache.jsonl")
    config_path = tmp_path / "config.json"
    config_path.write_text(edit(json.dumps(config, indent=2)))
    code, out, err = run(capsys, command, "--config", str(config_path))
    assert code == 1 and out == ""
    assert err.startswith("error: " + message.format(path=config_path)), err
    assert len(err.splitlines()) == 1  # no traceback


def _refuse_to_open(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a file was opened")

    monkeypatch.setattr(builtins, "open", refuse)
    monkeypatch.setattr(io, "open", refuse)


@pytest.mark.parametrize("edit, message", [case[:2] for case in RUN_SPEC_ERRORS],
                         ids=[case[2] for case in RUN_SPEC_ERRORS])
def test_read_run_config_gives_the_error_line_without_opening_a_file(monkeypatch, edit,
                                                                     message):
    config = json.loads(edit(data_path("experiment_replay.json").read_text()))
    _refuse_to_open(monkeypatch)
    with pytest.raises(SemkitError) as raised:
        read_run_config(config)
    assert f"{raised.value}\n" == message


def test_read_run_config_opens_no_file_for_a_valid_config(monkeypatch):
    config = json.loads(data_path("experiment_replay.json").read_text())
    _refuse_to_open(monkeypatch)
    spec = read_run_config(config)
    assert (spec.dialect, spec.gold_dialect, spec.seeds, spec.method, spec.k) == \
        ("pymr", "pymr", (0, 1, 2), "random", 3)


def test_the_cli_reads_and_loads_no_config_itself():
    from semkit import cli

    for name in ("load_dataset", "load_split", "load_dd_source", "make_client",
                 "load_config_environment", "Schema", "DemoSelector"):
        assert not hasattr(cli, name), name


@pytest.mark.parametrize("key", ["dataset", "split", "environment_file", "cache"])
def test_a_config_path_naming_a_directory_is_an_error_line(tmp_path, capsys, key):
    config = json.loads(data_path("experiment_replay.json").read_text())
    (config["client"] if key == "cache" else config)[key] = str(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code, out, err = run(capsys, "run", "--config", str(config_path),
                         "--output-dir", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(tmp_path) in err, err
    assert len(err.splitlines()) == 1  # no traceback


_IMPORTS_PROBE = """
import sys
import semkit.cli, semkit.experiment
print(sorted(name for name in ("urllib.request", "http.client", "ssl") if name in sys.modules))
"""


def _python(probe: str, *args: str, **variables: str) -> subprocess.CompletedProcess:
    """Run ``probe`` in a fresh interpreter that imports this checkout's semkit, with
    the environment ``variables`` set."""
    src = str(Path(semkit.__file__).resolve().parents[1])
    env = {**os.environ, **variables, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", probe, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_importing_the_cli_leaves_the_live_transport_modules_out():
    result = _python(_IMPORTS_PROBE)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# Prints the interpreter and world modules loaded after importing the CLI, after
# the benchmark's set-up probe on one world, and after that world's first program
# in its native dialect; then how many runs went through a counting execute
# function rebound before or after that run.
_INTERPRETERS_PROBE = """
import sys
from importlib import import_module
MODULES = ("semkit.calendar_world", "semkit.calflow", "semkit.funql", "semkit.geo",
           "semkit.pymr", "semkit.social", "semkit.social_db")
loaded = lambda: print([name for name in MODULES if name in sys.modules])
import semkit.cli, semkit.experiment
loaded()
environment, dataset, dialect, program, interpreter, execute, rebound = sys.argv[1:]
import semkit
from semkit.corpus import load_dataset, load_split
from semkit.execute import load_environment, run_program
from semkit.llm import ReplayCache
from semkit.prompts import load_dd_source
from semkit.resources import data_path, dd_path, environment_path
load_split(data_path("splits", dataset + "_iid.json"),
           load_dataset(data_path("datasets", dataset + ".jsonl")))
ReplayCache(data_path("replay_cache.jsonl"))
load_dd_source(dd_path(environment, dialect))
world = load_environment(environment, environment_path(environment))
loaded()
calls = []
def rebind():
    module = import_module(interpreter)
    original = getattr(module, execute)
    setattr(module, execute, lambda ast, world: calls.append(ast) or original(ast, world))
if rebound == "before":
    rebind()
first = run_program(dialect, program, environment, world)
loaded()
if rebound == "after":
    rebind()
second = run_program(dialect, program, environment, world)
print(first.ok, first == second, len(calls))
"""


@pytest.mark.parametrize("environment, dataset, dialect, program, interpreter, execute, world", [
    ("geo", "geoquery", "funql", "answer(count(state(all)))", "semkit.funql", "exec_funql",
     "semkit.geo"),
    ("social", "overnight", "ldcs",
     "(call SW.listValue (call SW.getProperty en.person (string !type)))", "semkit.social",
     "exec_ldcs_simple", "semkit.social_db"),
    ("calendar", "smcalflow", "dataflow-simple",
     "CreateEvent( AND( at_location( Central Park ) , starts_at( NextDOW( FRIDAY ) ) ) )",
     "semkit.calflow", "exec_dfs", "semkit.calendar_world"),
], ids=["geo", "social", "calendar"])
@pytest.mark.parametrize("rebound, runs_counted", [("before", 2), ("after", 1)])
def test_interpreters_are_imported_on_first_use(environment, dataset, dialect, program,
                                                interpreter, execute, world, rebound,
                                                runs_counted):
    result = _python(_INTERPRETERS_PROBE, environment, dataset, dialect, program, interpreter,
                     execute, rebound)
    assert result.returncode == 0, result.stderr
    cli, setup, first_run, runs = result.stdout.splitlines()
    assert cli == "[]"
    assert setup == f"[{world!r}]"
    assert first_run == repr(sorted([interpreter, world]))
    assert runs == f"True True {runs_counted}"


# Each world module declares its own pymr surface, so importing pymr loads no
# world, and a pymr run loads its own world's module and no other world or
# interpreter (a geo run names its entities through semkit.geo, not FunQL).
_PYMR_PROBE = """
import sys
import semkit.pymr
modules = ("semkit.calendar_world", "semkit.calflow", "semkit.funql", "semkit.geo",
           "semkit.social", "semkit.social_db")
print([m for m in modules if m in sys.modules])
from semkit.execute import load_environment, run_program
from semkit.resources import environment_path
environment, body = sys.argv[1:]
world = load_environment(environment, environment_path(environment))
outcome = run_program("pymr", "def answer():\\n    " + body, environment, world)
print(outcome.ok, [m for m in modules if m in sys.modules])
"""


@pytest.mark.parametrize("environment, body, world_module", [
    ("geo", "return geo_model.states[0]", "semkit.geo"),
    ("social", "return api.people[0]", "semkit.social_db"),
    ("calendar", "api.add_event(Event())", "semkit.calendar_world"),
])
def test_a_pymr_run_loads_no_other_world(environment, body, world_module):
    result = _python(_PYMR_PROBE, environment, body)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", f"True [{world_module!r}]"]


# Records are written out, so no semkit module, bundled world, dataset, replay cache or
# DD source brings in ``dataclasses``, whose import and generated methods cost start-up.
_RECORDS_PROBE = """
import json
import pkgutil
import sys
from importlib import import_module
import semkit
for module in pkgutil.iter_modules(semkit.__path__):
    import_module("semkit." + module.name)
from semkit.corpus import load_dataset, load_split
from semkit.execute import DIALECTS, ENVIRONMENTS, load_environment
from semkit.llm import ReplayCache
from semkit.prompts import load_dd_source
from semkit.resources import data_path, dataset_path, dd_path, environment_path, split_path
for name in ("geoquery", "overnight", "smcalflow"):
    load_split(split_path(name + "_iid"), load_dataset(dataset_path(name)))
for environment in ENVIRONMENTS:
    load_environment(environment, environment_path(environment))
    for dialect, entry in DIALECTS.items():
        if entry.environment in (None, environment):
            load_dd_source(dd_path(environment, dialect))
for cache in ("replay_cache.jsonl", "bootstrap_cache.jsonl"):
    ReplayCache(data_path(cache))
print(json.dumps(sorted(m for m in sys.modules if m == "dataclasses" or m.startswith("semkit."))))
"""


def test_a_process_that_loads_everything_bundled_never_imports_dataclasses():
    result = _python(_RECORDS_PROBE)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert "dataclasses" not in loaded
    modules = Path(semkit.__file__).parent.glob("*.py")
    assert loaded == sorted(f"semkit.{m.stem}" for m in modules if m.stem != "__init__")


# Prints the failure message of one geo pymr program.
_MESSAGE_PROBE = """
import sys
from semkit.execute import load_environment, run_program
from semkit.resources import environment_path
geo_model = load_environment("geo", environment_path("geo"))
print(run_program("pymr", "def answer():\\n    " + sys.argv[1], "geo", geo_model).message)
"""


# A set's order follows the string hash seed or its items' addresses; its message
# does not, as shown sorts the items.
@pytest.mark.parametrize("body, shown_as", [
    ('return [set(["alpha", "beta", "gamma", "delta"])]', "{'alpha', 'beta', 'delta', 'gamma'}"),
    ("return [set(geo_model.states)]",
     "{<state arkansas>, <state colorado>, <state kansas>, <state louisiana>, <state missouri>, "
     "<state new mexico>, <state oklahoma>, <state texas>}"),
])
def test_a_set_in_a_failure_message_is_the_same_under_any_hash_seed(body, shown_as):
    messages = set()
    for hash_seed in ("1", "2"):
        result = _python(_MESSAGE_PROBE, body, PYTHONHASHSEED=hash_seed)
        assert result.returncode == 0, result.stderr
        messages.add(result.stdout)
    assert messages == {f"type-mismatch: cannot interpret {shown_as} as an answer\n"}


# Four threads run FunQL programs from the first one on, switching as often as
# they can: a thread that starts while another is importing the interpreter
# must wait for it, not run against a half-initialized module.
_FIRST_USE_THREADS_PROBE = """
import sys, threading
from semkit.execute import load_environment, run_program
from semkit.resources import environment_path
geo_model = load_environment("geo", environment_path("geo"))
messages = []
def runs():
    for _ in range(50):
        outcome = run_program("funql", "answer(count(state(all)))", "geo", geo_model)
        messages.append(outcome.message)
threads = [threading.Thread(target=runs) for _ in range(4)]
sys.setswitchinterval(1e-6)
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=30)
print(sum(thread.is_alive() for thread in threads), len(messages), sorted(set(map(str, messages))))
"""


def test_threads_that_first_use_an_interpreter_together_all_run_it():
    result = _python(_FIRST_USE_THREADS_PROBE)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0 200 ['None']"  # every run done, none failed


def test_run_zero_test_examples_is_config_error(tmp_path, capsys):
    split = {"name": "empty", "train": ["gq-01", "gq-02"], "test": []}
    split_path = tmp_path / "split.json"
    split_path.write_text(json.dumps(split))
    config = json.loads(data_path("experiment_replay.json").read_text())
    config["split"] = str(split_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code, _, err = run(capsys, "run", "--config", str(config_path),
                       "--output-dir", str(tmp_path / "out"))
    assert code == 1 and "zero test examples" in err


def test_bootstrap_command(tmp_path, capsys):
    config = json.loads(data_path("bootstrap_replay.json").read_text())
    config["dataset"] = "bundled:datasets/geoquery.jsonl"
    config["client"]["cache"] = str(data_path("bootstrap_cache.jsonl"))
    config["output"] = str(tmp_path / "pool.jsonl")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code, out, _ = run(capsys, "bootstrap", "--config", str(config_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["pool_before"] == 5 and summary["pool_after"] == 9
    lines = (tmp_path / "pool.jsonl").read_text().splitlines()
    assert len(lines) == 9


def _tree_state(root):
    return sorted((str(path.relative_to(root)), path.read_bytes())
                  for path in root.rglob("*") if path.is_file() and "__pycache__" not in path.parts)


def test_bootstrap_bundled_config_writes_pool_in_working_directory(tmp_path, monkeypatch, capsys):
    bundled = data_path("bootstrap_replay.json")
    assert "output" not in json.loads(bundled.read_text())
    before = _tree_state(bundled.parent)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "bootstrap", "--config", str(bundled))
    assert code == 0
    assert json.loads(out)["output"] == "pool.jsonl"
    assert len((tmp_path / "pool.jsonl").read_text().splitlines()) == 9
    assert _tree_state(bundled.parent) == before


def test_bootstrap_explicit_output_resolves_against_config(tmp_path, monkeypatch, capsys):
    config = json.loads(data_path("bootstrap_replay.json").read_text())
    config["output"] = "grown.jsonl"
    (tmp_path / "cfg").mkdir()
    (tmp_path / "cwd").mkdir()
    config_path = tmp_path / "cfg" / "config.json"
    config_path.write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path / "cwd")
    code, _, _ = run(capsys, "bootstrap", "--config", str(config_path))
    assert code == 0
    assert len((tmp_path / "cfg" / "grown.jsonl").read_text().splitlines()) == 9
    assert list((tmp_path / "cwd").iterdir()) == []


def test_bootstrap_unknown_environment_is_an_error(tmp_path, capsys):
    config = json.loads(data_path("bootstrap_replay.json").read_text())
    config["environment"] = "mars"
    config["output"] = str(tmp_path / "pool.jsonl")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code, out, err = run(capsys, "bootstrap", "--config", str(config_path))
    assert code == 1 and out == ""
    assert err == "error: dialect 'pymr' does not run against 'mars'\n"  # as for run
    assert not (tmp_path / "pool.jsonl").exists()


@pytest.mark.parametrize("key,dialect", [("dialect", "ldcs"), ("gold_dialect", "dataflow-simple")])
def test_bootstrap_checks_its_dialect_pairing_before_reading_a_file(tmp_path, capsys, key,
                                                                     dialect):
    config = json.loads(data_path("bootstrap_replay.json").read_text())
    config[key] = dialect
    config["dataset"] = "missing.jsonl"
    config["client"]["cache"] = str(tmp_path / "missing-cache.jsonl")
    config["output"] = str(tmp_path / "pool.jsonl")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code, out, err = run(capsys, "bootstrap", "--config", str(config_path))
    assert code == 1 and out == ""
    assert err == f"error: dialect {dialect!r} does not run against 'geo'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("key", ["seed_ids", "unlabeled_ids"])
def test_bootstrap_unknown_id_is_an_error_before_any_request(tmp_path, monkeypatch, capsys, key):
    from semkit.llm import LlmClient

    def refuse(self, request):
        raise AssertionError("a completion was requested")

    monkeypatch.setattr(LlmClient, "complete", refuse)
    config = json.loads(data_path("bootstrap_replay.json").read_text())
    config[key] = [*config[key], "nope"]
    config["output"] = str(tmp_path / "pool.jsonl")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code, out, err = run(capsys, "bootstrap", "--config", str(config_path))
    assert code == 1 and out == ""
    assert err == f"error: bootstrap config: {key} names unknown example ids: ['nope']\n"
    assert not (tmp_path / "pool.jsonl").exists()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["select", "--method", "warp"])
    assert exit_info.value.code == 1


WRONG = "def answer():\n    return -1"
# empties the world it runs against, unless the world is read-only
MUTATING = ("def answer():\n"
            "    for state in list(geo_model.states):\n"
            "        geo_model.states.remove(state)\n"
            "    return -1")


def _replay_config(tmp_path, capsys, method, wrong=None):
    """The bundled replay experiment, with its cache recorded first when ``wrong`` is given.

    Recorded completions answer even-numbered test examples with their gold
    program and the rest with ``wrong``, so the reports mix verdicts.
    """
    tmp_path.mkdir(parents=True, exist_ok=True)
    config = json.loads(data_path("experiment_replay.json").read_text())
    if wrong is not None:
        dataset = load_dataset(data_path("datasets", "geoquery.jsonl"))
        by_utterance = {ex.utterance: ex for ex in dataset.examples}

        def answer(prompt):
            example = by_utterance[prompt.rsplit("query: ", 1)[1].split("\n")[0]]
            if int(example.id.rsplit("-", 1)[1]) % 2:
                return wrong
            return example.programs["pymr"]

        server, url, _ = _endpoint(answer)
        config["selection"] = {"method": method, "k": 3}
        config["client"] = {"mode": "record", "cache": str(tmp_path / "cache.jsonl"),
                            "model": "live-model", "endpoint": url}
        config_path = tmp_path / "record.json"
        config_path.write_text(json.dumps(config))
        try:
            code, _, _ = run(capsys, "run", "--config", str(config_path),
                             "--output-dir", str(tmp_path / "recorded"))
            assert code == 0
        finally:
            server.shutdown()
            server.server_close()
        config["client"] = {"mode": "replay", "cache": str(tmp_path / "cache.jsonl"),
                            "model": "live-model"}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return config_path


def test_run_parallel_jobs_matches_serial(tmp_path, capsys):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so shared state sees interleavings
    try:
        split = load_split(data_path("splits", "geoquery_iid.json"),
                           load_dataset(data_path("datasets", "geoquery.jsonl")))
        even = [i for i in split.test_ids if int(i.rsplit("-", 1)[1]) % 2 == 0]
        gold_share = len(even) / len(split.test_ids)
        cases = {"random": ("random", None), "bm25": ("bm25", WRONG),
                 "coverage": ("coverage", WRONG), "mutating": ("random", MUTATING)}
        for case, (method, wrong) in cases.items():
            config_path = _replay_config(tmp_path / case, capsys, method, wrong)
            outputs = {}
            for jobs in ("1", "4"):
                out_dir = tmp_path / case / f"jobs{jobs}"
                code, out, err = run(capsys, "run", "--config", str(config_path),
                                     "--output-dir", str(out_dir), "--jobs", jobs)
                assert code == 0 and err == ""
                outputs[jobs] = (out, {p.name: p.read_bytes()
                                       for p in sorted(out_dir.iterdir())})
            assert outputs["1"] == outputs["4"], case
            accuracies = json.loads(outputs["1"][0])["accuracies"]
            assert all(0.0 < a < 1.0 for a in accuracies), case
            if case == "mutating":  # every gold answer still scores: no world changed
                assert accuracies == [gold_share] * len(accuracies)
    finally:
        sys.setswitchinterval(interval)


def test_execute_pymr_program(tmp_path, capsys):
    program = tmp_path / "p.py"
    program.write_text("def answer():\n    return len(geo_model.rivers)\n")
    code, out, _ = run(capsys, "execute", "--env", "geo", "--dialect", "pymr",
                       "--program", str(program), "--world", "bundled:geobase.jsonl")
    assert code == 0
    assert json.loads(out)["result"]["value"] == 5.0


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("expr,shown_as", [("1e309 - 1e309", "nan"), ("abs(-1e309)", "inf")])
def test_execute_non_finite_answer_prints_standard_json(tmp_path, capsys, expr, shown_as):
    program = tmp_path / "p.py"
    program.write_text(f"def answer():\n    return {expr}\n")
    code, out, _ = run(capsys, "execute", "--env", "geo", "--dialect", "pymr",
                       "--program", str(program), "--world", "bundled:geobase.jsonl")
    assert code == 2
    assert _strict_json(out) == {"ok": False, "error": "type-mismatch",
                                 "message": f"type-mismatch: cannot interpret {shown_as} "
                                            f"as an answer"}


def _endpoint(answer):
    """A local completion endpoint answering ``answer(prompt)``; returns the prompts it got."""
    import http.server
    import threading

    prompts = []

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            prompts.append(request["prompt"])
            body = json.dumps({"completion": answer(request["prompt"])}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, f"http://127.0.0.1:{server.server_address[1]}/", prompts


def _reference_demo_ids(method, dataset, split, dialect, k, query):
    """Demonstrations picked from scratch for one query, sharing no state between queries."""
    pool = [i for i in split.train_ids if dialect in dataset[i].programs]
    if method == "bm25":
        return bm25_rank(query, Bm25Index([(i, dataset[i].utterance) for i in pool]), k)
    sets = [(i, operators_of(dialect, dataset[i].programs[dialect])) for i in pool]
    return greedy_select(sets, frozenset().union(*(s for _, s in sets)), k)


@pytest.mark.parametrize("method", ["coverage", "bm25"])
def test_run_record_mode_with_selection_methods(tmp_path, capsys, method):
    server, url, prompts = _endpoint(lambda prompt: "def answer():\n    return -1")
    try:
        config = json.loads(data_path("experiment_replay.json").read_text())
        config["selection"] = {"method": method, "k": 3}
        config["seeds"] = [0]
        config["client"] = {"mode": "record", "cache": str(tmp_path / "cache.jsonl"),
                            "model": "live-model", "endpoint": url}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        code, out, _ = run(capsys, "run", "--config", str(config_path),
                           "--output-dir", str(tmp_path / "out"))
        assert code == 0
        aggregate = json.loads(out)
        # -1 is never a gold answer, so everything executes yet nothing is correct
        assert aggregate["mean_exec_failure_rate"] == 0.0
        assert aggregate["mean_accuracy"] == 0.0
        recorded = (tmp_path / "cache.jsonl").read_text().splitlines()
        assert len(recorded) == 10  # one request per test example
        dataset = load_dataset(data_path("datasets", "geoquery.jsonl"))
        split = load_split(data_path("splits", "geoquery_iid.json"), dataset)
        dd = render_dd(load_dd_source(dd_path("geo", "pymr")), "full")
        expected = []
        for test_id in split.test_ids:
            utterance = dataset[test_id].utterance
            ids = _reference_demo_ids(method, dataset, split, "pymr", 3, utterance)
            expected.append(build_prompt(
                default_template(), dd,
                tuple((dataset[i].utterance, dataset[i].programs["pymr"]) for i in ids),
                utterance))
        assert prompts == expected
    finally:
        server.shutdown()
        server.server_close()


def test_execute_unknown_dialect_is_usage_error(tmp_path, capsys):
    program = tmp_path / "p.txt"
    program.write_text(SHOWCASE_FUNQL)
    with pytest.raises(SystemExit) as exit_info:
        main(["execute", "--env", "geo", "--dialect", "bogus", "--program", str(program),
              "--world", "bundled:geobase.jsonl"])
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument --dialect: invalid choice: 'bogus'")


@pytest.mark.parametrize("command", ["execute", "prompt"])
def test_dialect_environment_mismatch_is_usage_error(tmp_path, capsys, command):
    program = tmp_path / "p.ldcs"
    program.write_text(CANON_LDCS_FULL)
    if command == "execute":
        rest = ["--program", str(program), "--world", "bundled:geobase.jsonl"]
    else:
        rest = ["--dataset", "bundled:datasets/geoquery.jsonl",
                "--split", "bundled:splits/geoquery_iid.json", "--utterance", "hi"]
    code, out, err = run(capsys, command, "--env", "geo", "--dialect", "ldcs", *rest)
    assert code == 1 and out == ""
    assert err == "error: dialect 'ldcs' does not run against 'geo'\n"


@pytest.mark.parametrize("command,bundled", [("run", "experiment_replay.json"),
                                             ("bootstrap", "bootstrap_replay.json")])
def test_gold_dialect_mismatch_fails_before_any_request(tmp_path, capsys, command, bundled):
    server, url, prompts = _endpoint(lambda prompt: "def answer():\n    return -1")
    try:
        config = json.loads(data_path(bundled).read_text())
        config["gold_dialect"] = "ldcs"
        config["client"] = {"mode": "record", "cache": str(tmp_path / "cache.jsonl"),
                            "model": "live-model", "endpoint": url}
        config["output"] = str(tmp_path / "pool.jsonl")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        argv = ["--config", str(config_path)]
        if command == "run":
            argv += ["--output-dir", str(tmp_path / "out")]
        code, out, err = run(capsys, command, *argv)
        assert code == 1 and out == ""
        assert err == "error: dialect 'ldcs' does not run against 'geo'\n"
        assert prompts == []
    finally:
        server.shutdown()
        server.server_close()


def _replay_config_with(tmp_path, temperature):
    config = json.loads(data_path("experiment_replay.json").read_text())
    config["client"]["temperature"] = temperature
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return ["--config", str(config_path), "--output-dir", str(tmp_path / "out")]


@pytest.mark.parametrize("temperature", [3.0, -0.5, 2.0001, "0.5", True, None, [0.0]])
def test_bad_temperature_is_an_error_line_before_any_loading(monkeypatch, tmp_path, capsys,
                                                            temperature):
    from semkit import experiment

    def refuse(*args, **kwargs):
        raise AssertionError("loaded before the temperature was checked")

    # load_run reads the template first, then builds the client and loads the rest
    monkeypatch.setattr(experiment, "load_run", refuse)
    argv = _replay_config_with(tmp_path, temperature)
    message = f"client temperature must be a number within [0, 2], not {temperature!r}"
    code, out, err = run(capsys, "run", *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"
    config = json.loads(Path(argv[1]).read_text())
    _refuse_to_open(monkeypatch)
    with pytest.raises(SemkitError, match=re.escape(message)):
        read_run_config(config)


@pytest.mark.parametrize("temperature", [0, 0.0, -0.0])
def test_valid_temperature_keeps_the_request_fingerprints(tmp_path, capsys, temperature):
    code, out, err = run(capsys, "run", *_replay_config_with(tmp_path, temperature))
    assert code == 0 and err == ""  # every request hits the bundled replay cache
    assert json.loads(out)["accuracies"] == [0.8, 0.7, 0.9]
