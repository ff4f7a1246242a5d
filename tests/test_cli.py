import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import semkit
from semkit.cli import main
from semkit.corpus import load_dataset, load_split
from semkit.execute import operators_of
from semkit.prompts import PromptSpec, build_prompt, load_dd_source, render_dd
from semkit.resources import data_path, dd_path
from semkit.selection import bm25_rank, greedy_select

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


def test_run_on_a_corrupt_cache_is_an_error_line(tmp_path, capsys):
    cache_lines = data_path("replay_cache.jsonl").read_text().splitlines()
    cache_lines[3] = cache_lines[3][:40]  # a line cut short
    corrupt = tmp_path / "corrupt.jsonl"
    corrupt.write_text("\n".join(cache_lines) + "\n")
    config = json.loads(data_path("experiment_replay.json").read_text())
    config["client"]["cache"] = str(corrupt)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code, out, err = run(capsys, "run", "--config", str(config_path),
                         "--output-dir", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {corrupt}: line 4: not valid JSON: ")
    assert len(err.splitlines()) == 1  # no traceback


_IMPORTS_PROBE = """
import sys
import semkit.cli, semkit.experiment
print(sorted(name for name in ("urllib.request", "http.client", "ssl") if name in sys.modules))
"""


def test_importing_the_cli_leaves_the_live_transport_modules_out():
    src = str(Path(semkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    result = subprocess.run([sys.executable, "-c", _IMPORTS_PROBE], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


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
    assert err == "error: unknown environment 'mars'\n"
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
        return bm25_rank(query, [(i, dataset[i].utterance) for i in pool], k)
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
            expected.append(build_prompt(PromptSpec(
                dd_variant="full", dd_text=dd, test_utterance=utterance, dialect="pymr",
                demonstrations=tuple((dataset[i].utterance, dataset[i].programs["pymr"])
                                     for i in ids))))
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
