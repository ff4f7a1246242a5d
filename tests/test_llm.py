import json

import pytest

from semkit import funql
from semkit.corpus import Example
from semkit.errors import CacheMissError, DataFormatError, SemkitError, TransportError
from semkit.evaluation import POLICIES, canonicalize_names, compare_outcomes
from semkit.execute import run_program
from semkit.llm import (BootstrapConfig, CompletionRequest, LlmClient, ReplayCache,
                        bootstrap_annotations, extract_program)
from semkit.prompts import load_dd_source
from semkit.resources import data_path, dd_path


def request(prompt="hello", model="m1"):
    return CompletionRequest(prompt=prompt, model=model)


def test_temperature_bounds():
    with pytest.raises(ValueError):
        CompletionRequest(prompt="p", model="m", temperature=3.0)
    assert CompletionRequest(prompt="p", model="m").temperature == 0.0


def test_replay_returns_stored_text(tmp_path):
    cache = ReplayCache(tmp_path / "c.jsonl")
    cache.put(request(), "stored text")
    client = LlmClient(mode="replay", cache=ReplayCache(tmp_path / "c.jsonl"))
    assert client.complete(request()) == "stored text"


def test_replay_miss_names_fingerprint(tmp_path):
    client = LlmClient(mode="replay", cache=ReplayCache(tmp_path / "c.jsonl"))
    with pytest.raises(CacheMissError) as err:
        client.complete(request())
    assert request().fingerprint() in str(err.value)


def test_record_then_replay_round_trip(tmp_path):
    sent = []

    def transport(req):
        sent.append(req)
        return "completion body"

    path = tmp_path / "c.jsonl"
    recorder = LlmClient(mode="record", cache=ReplayCache(path), transport=transport)
    recorded = recorder.complete(request())

    def exploding(req):  # replay must never touch the network
        raise AssertionError("transport used in replay mode")

    replayer = LlmClient(mode="replay", cache=ReplayCache(path), transport=exploding)
    assert replayer.complete(request()) == recorded == "completion body"
    assert len(sent) == 1


def test_cache_file_is_append_only_jsonl(tmp_path):
    path = tmp_path / "c.jsonl"
    cache = ReplayCache(path)
    cache.put(request("a"), "one")
    cache.put(request("b"), "two")
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 2
    assert {"fingerprint", "prompt_sha256", "model", "temperature", "completion",
            "meta"} <= set(lines[0])


def test_fingerprint_collision_detected(tmp_path):
    path = tmp_path / "c.jsonl"
    cache = ReplayCache(path)
    cache.put(request("a"), "one")
    entry = json.loads(path.read_text())
    entry["prompt_sha256"] = "0" * 64
    path.write_text(json.dumps(entry) + "\n")
    with pytest.raises(SemkitError, match="collision"):
        ReplayCache(path).get(request("a"))


ENTRY = {"fingerprint": "f", "prompt_sha256": "p", "completion": "c"}


@pytest.mark.parametrize("line,message", [
    ('{"fingerprint" "f"}', "not valid JSON: Expecting ':' delimiter: line 1 column 16 (char 15)"),
    ('["f", "p", "c"]', "expected a JSON object"),
    (json.dumps({k: v for k, v in ENTRY.items() if k != "fingerprint"}),
     "missing field 'fingerprint'"),
    (json.dumps({k: v for k, v in ENTRY.items() if k != "prompt_sha256"}),
     "missing field 'prompt_sha256'"),
    (json.dumps({k: v for k, v in ENTRY.items() if k != "completion"}),
     "missing field 'completion'"),
])
def test_malformed_cache_line_is_a_data_format_error(tmp_path, line, message):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(ENTRY) + "\n\n" + line + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as info:
        ReplayCache(path)
    assert str(info.value) == f"{path}: line 3: {message}"


def test_retries_with_backoff(tmp_path):
    attempts = []

    def flaky(req):
        attempts.append(1)
        if len(attempts) < 3:
            raise TransportError("try again")
        return "finally"

    client = LlmClient(mode="live", transport=flaky, retries=3, backoff_seconds=0.0)
    assert client.complete(request()) == "finally"
    assert len(attempts) == 3

    def always_down(req):
        raise TransportError("down")

    client = LlmClient(mode="live", transport=always_down, retries=2, backoff_seconds=0.0)
    with pytest.raises(TransportError):
        client.complete(request())


def test_extract_program_fenced():
    text = "Sure!\n```python\ndef answer():\n    return 1\n```\nHope that helps."
    assert extract_program(text) == "def answer():\n    return 1"


def test_extract_program_function_shaped():
    text = "Here you go:\ndef answer():\n    x = 1\n    return x\nThat's it."
    assert extract_program(text) == "def answer():\n    x = 1\n    return x"


def test_extract_program_plain():
    assert extract_program("  answer(count(state(all)))\n") == "answer(count(state(all)))"


def strip_pymr(example):
    return Example(id=example.id, utterance=example.utterance,
                   programs={d: p for d, p in example.programs.items() if d != "pymr"},
                   tags=example.tags)


@pytest.fixture()
def bootstrap_setup(geoquery):
    seed_ids = ["gq-01", "gq-02", "gq-03", "gq-04", "gq-06"]
    unlabeled_ids = ["gq-07", "gq-08", "gq-09", "gq-11", "gq-12"]
    seed_pool = [geoquery[i] for i in seed_ids]
    unlabeled = [strip_pymr(geoquery[i]) for i in unlabeled_ids]
    config = BootstrapConfig(
        environment="geo", dialect="pymr", gold_dialect="funql", model="desk-model-1",
        k=3, passes=3, seed=0, dd_declarations=load_dd_source(dd_path("geo", "pymr")))
    return seed_pool, unlabeled, config


def test_bootstrap_fixture_grows_pool_5_to_9(geo_model, bootstrap_setup):
    seed_pool, unlabeled, config = bootstrap_setup
    client = LlmClient(mode="replay", cache=ReplayCache(data_path("bootstrap_cache.jsonl")))
    pool = bootstrap_annotations(seed_pool, unlabeled, geo_model, client, config)
    assert len(pool) == 9
    added = {ex.id for ex in pool} - {ex.id for ex in seed_pool}
    assert added == {"gq-07", "gq-08", "gq-11", "gq-12"}  # gq-09's candidate was wrong
    assert pool[:5] == seed_pool
    assert [ex.id for ex in pool[5:]] == ["gq-07", "gq-08", "gq-11", "gq-12"]  # accept order


def test_bootstrap_runs_each_distinct_gold_once_per_call(monkeypatch, geo_model,
                                                          bootstrap_setup):
    seed_pool, unlabeled, config = bootstrap_setup
    at = [ex.id for ex in unlabeled].index("gq-09")  # rejected on every pass
    gq09 = unlabeled[at]
    # right behind gq-09 its twin sees the same pool, so the same (cached) prompt
    twin = Example(id="gq-09-twin", utterance=gq09.utterance, programs=gq09.programs,
                   tags=gq09.tags)
    unlabeled = [*unlabeled[:at + 1], twin, *unlabeled[at + 1:]]
    runs = []
    original = funql.exec_funql

    def counting_exec(ast, world):
        runs.append(ast)
        return original(ast, world)

    monkeypatch.setattr(funql, "exec_funql", counting_exec)
    golds = {ex.programs["funql"] for ex in unlabeled}
    assert len(golds) == len(unlabeled) - 1
    for call in (1, 2):  # the memo lives for one call
        client = LlmClient(mode="replay", cache=ReplayCache(data_path("bootstrap_cache.jsonl")))
        pool = bootstrap_annotations(seed_pool, unlabeled, geo_model, client, config)
        assert len(pool) == 9
        assert len(runs) == call * len(golds)


def test_bootstrap_without_annotated_seed_fails_before_any_request(geo_model, bootstrap_setup):
    _, unlabeled, config = bootstrap_setup
    requests = []

    def transport(req):
        requests.append(req)
        return "def answer():\n    return 1"

    client = LlmClient(mode="live", transport=transport)
    with pytest.raises(SemkitError, match="no seed-pool example is annotated in 'pymr'"):
        bootstrap_annotations(unlabeled, unlabeled, geo_model, client, config)
    assert requests == []


def test_bootstrap_k_below_one_is_rejected(geo_model, bootstrap_setup, tmp_path):
    seed_pool, unlabeled, config = bootstrap_setup
    config.k = 0
    client = LlmClient(mode="replay", cache=ReplayCache(tmp_path / "empty.jsonl"))
    with pytest.raises(ValueError, match="k must be >= 1"):
        bootstrap_annotations(seed_pool, unlabeled, geo_model, client, config)


def test_bootstrap_added_programs_reverify_offline(geo_model, geoquery, bootstrap_setup):
    seed_pool, unlabeled, config = bootstrap_setup
    client = LlmClient(mode="replay", cache=ReplayCache(data_path("bootstrap_cache.jsonl")))
    pool = bootstrap_annotations(seed_pool, unlabeled, geo_model, client, config)
    policy = POLICIES["geo"]
    for example in pool:
        pred = run_program("pymr", example.programs["pymr"], "geo", geo_model)
        gold = run_program("funql", geoquery[example.id].programs["funql"], "geo", geo_model)
        assert pred.ok and gold.ok and compare_outcomes(pred, gold, policy), example.id


def test_bootstrap_client_error_aborts_pass_not_pool(geo_model, bootstrap_setup, tmp_path):
    seed_pool, unlabeled, config = bootstrap_setup
    client = LlmClient(mode="replay", cache=ReplayCache(tmp_path / "empty.jsonl"))
    requests = []
    complete = client.complete
    client.complete = lambda request: requests.append(request) or complete(request)
    pool = bootstrap_annotations(seed_pool, unlabeled, geo_model, client, config)
    assert [ex.id for ex in pool] == [ex.id for ex in seed_pool]
    assert len(requests) == config.passes  # each pass stops at its first harness error


def test_calendar_bootstrap_stores_the_model_text_verbatim(calendar_world, smcalflow):
    sm03 = smcalflow["sm-03"]  # "set a meeting with John at 10 am"; John renamed to a world person
    renamed = Example(id=sm03.id, utterance=sm03.utterance.replace("John", "Emma"),
                      programs={d: p.replace("John", "Emma") for d, p in sm03.programs.items()},
                      tags=sm03.tags)
    unlabeled = [strip_pymr(renamed), strip_pymr(smcalflow["sm-01"])]
    gold = {ex.utterance: ex.programs["pymr"] for ex in (renamed, smcalflow["sm-01"])}
    prompts = []

    def transport(request):  # answers each test query with its gold pymr program, fenced
        prompts.append(request.prompt)
        query = request.prompt.rsplit("query: ", 1)[1].split("\n", 1)[0]
        return f"```python\n{gold[query]}\n```"

    config = BootstrapConfig(
        environment="calendar", dialect="pymr", gold_dialect="dataflow-simple",
        model="desk-model-1", k=2, passes=2, seed=0,
        dd_declarations=load_dd_source(dd_path("calendar", "pymr")))
    seed_pool = [smcalflow[i] for i in ("sm-06", "sm-08", "sm-09")]
    pool = bootstrap_annotations(seed_pool, unlabeled, calendar_world,
                                 LlmClient(mode="live", transport=transport), config)
    assert [ex.id for ex in pool[3:]] == ["sm-03", "sm-01"] and len(prompts) == 2
    accepted = pool[3].programs["pymr"]
    assert accepted == renamed.programs["pymr"] and 'find_person("Emma")' in accepted
    assert canonicalize_names(accepted, renamed.programs["dataflow-simple"],
                              calendar_world)[0] != accepted  # as run would have renamed it


class _Endpoint:
    """One-process completion endpoint for transport tests."""

    def __init__(self, payload):
        import http.server
        import threading

        payload_bytes = json.dumps(payload).encode()

        class Handler(http.server.BaseHTTPRequestHandler):
            requests = []

            def do_POST(self):
                length = int(self.headers["Content-Length"])
                Handler.requests.append(json.loads(self.rfile.read(length)))
                self.send_response(200)
                self.send_header("Content-Length", str(len(payload_bytes)))
                self.end_headers()
                self.wfile.write(payload_bytes)

            def log_message(self, *args):
                pass

        self.handler = Handler
        self.server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}/"
        threading.Thread(target=self.server.serve_forever, daemon=True).start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()


def test_http_transport_round_trip(monkeypatch):
    from semkit.llm import http_transport

    endpoint = _Endpoint({"completion": "from the endpoint"})
    monkeypatch.setenv("SEMKIT_API_KEY", "sekret")
    try:
        send = http_transport(endpoint.url)
        assert send(request("live prompt", "live-model")) == "from the endpoint"
        seen = endpoint.handler.requests[0]
        assert seen["model"] == "live-model" and seen["prompt"] == "live prompt"
    finally:
        endpoint.close()


def test_http_transport_malformed_response():
    from semkit.llm import http_transport

    endpoint = _Endpoint({"unexpected": 1})
    try:
        with pytest.raises(TransportError, match="malformed"):
            http_transport(endpoint.url)(request())
    finally:
        endpoint.close()
