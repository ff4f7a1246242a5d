import json
import sys

import pytest

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
    assert code == 0  # the run completes; the missing entry is one failure verdict
    aggregate = json.loads(out)
    assert aggregate["accuracies"][0] == 0.7
    assert aggregate["accuracies"][1:] == [0.7, 0.9]
    assert "no cached completion" in err


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


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["select", "--method", "warp"])
    assert exit_info.value.code == 1


def _replay_config(tmp_path, capsys, method):
    """The bundled replay experiment, with its cache recorded first when not ``random``.

    Recorded completions answer even-numbered test examples with their gold
    program and the rest with a wrong one, so the reports mix verdicts.
    """
    tmp_path.mkdir(parents=True, exist_ok=True)
    config = json.loads(data_path("experiment_replay.json").read_text())
    if method != "random":
        dataset = load_dataset(data_path("datasets", "geoquery.jsonl"))
        by_utterance = {ex.utterance: ex for ex in dataset.examples}

        def answer(prompt):
            example = by_utterance[prompt.rsplit("query: ", 1)[1].split("\n")[0]]
            if int(example.id.rsplit("-", 1)[1]) % 2:
                return "def answer():\n    return -1"
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
        config["client"] = {"mode": "replay", "cache": str(tmp_path / "cache.jsonl"),
                            "model": "live-model"}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return config_path


def test_run_parallel_jobs_matches_serial(tmp_path, capsys):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so shared state sees interleavings
    try:
        for method in ("random", "bm25", "coverage"):
            config_path = _replay_config(tmp_path / method, capsys, method)
            outputs = {}
            for jobs in ("1", "4"):
                out_dir = tmp_path / method / f"jobs{jobs}"
                code, out, err = run(capsys, "run", "--config", str(config_path),
                                     "--output-dir", str(out_dir), "--jobs", jobs)
                assert code == 0 and err == ""
                outputs[jobs] = (out, {p.name: p.read_bytes()
                                       for p in sorted(out_dir.iterdir())})
            assert outputs["1"] == outputs["4"], method
            accuracies = json.loads(outputs["1"][0])["accuracies"]
            assert all(0.0 < a < 1.0 for a in accuracies), method
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
